//! The planners' sample cache: striped for parallel row ingestion.
//!
//! [`ShardedSampleCache`] is the thread-safe, batch-ingesting form of the
//! sequential reference [`SampleCache`](crate::cache::SampleCache), and the
//! one every planner runs on (a single worker uses it uncontended): N
//! ingestion workers claim
//! disjoint morsels from a shared pool (see `Table::scan_pooled`) and
//! stream them into one shared cache concurrently. Contention is kept off
//! the hot path by striping state per aggregate:
//!
//! * each aggregate's value bucket sits behind its **own** mutex, so two
//!   workers only contend when their rows land in the same aggregate;
//! * the global counters (`nr_read`, per-aggregate offered counts, scope
//!   count/sum) are atomics — `nr_read` in particular is bumped once per
//!   row by every worker and must not serialize them;
//! * the non-empty aggregate list used by `PickAggregate` is a lock-free
//!   append-only array (capacity = number of aggregates, slots reserved by
//!   `fetch_add`, published by store) — `pick_aggregate` runs every planner
//!   iteration on every thread and must not take a global lock.
//!
//! Readers (planner sampling threads) see a **merged view**: `estimate`,
//! `pick_aggregate`, and `overall_estimate` have the same semantics as the
//! sequential cache, computed over the union of all workers' insertions.
//! Since the pool hands out whole chunks of the seeded two-level scan
//! order, the union of the workers' progress at any point is a prefix of
//! that order — a uniform random subset of the table, which is the
//! property all the paper's estimators rest on (see
//! `voxolap_data::chunk` for the uniformity argument).

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, MutexGuard};

use rand::Rng;

use voxolap_faults::{DegradeStats, FaultInjector, FaultSite};

use crate::poison::RecoveringMutex;
use crate::query::{AggFct, AggIdx, AGG_OUT_OF_SCOPE};
use crate::resample::{
    estimate_from_resample, resample_into_scratch, CacheEstimate, ResampleScratch,
    DEFAULT_RESAMPLE_SIZE,
};

/// Sentinel marking a reserved-but-not-yet-written `nonempty` slot.
const UNPUBLISHED: u32 = u32::MAX;

/// Thread-local accumulator for one morsel's rows, drained into the cache
/// by [`ShardedSampleCache::observe_batch`] — the group-commit half of the
/// batched ingest protocol (DESIGN.md §14).
///
/// A worker resolves a whole scan block's aggregate codes first (see
/// `ResultLayout::agg_of_block`), pushes each row here, then commits once:
/// per-aggregate value groups amortize one bucket-lock acquisition over
/// every row of the batch landing in that aggregate, while `scope_vals`
/// keeps the in-scope values in scan order so the scope-sum fold preserves
/// the sequential cache's floating-point association (threads=1
/// bit-parity).
///
/// The per-aggregate vectors persist across batches (`clear` is
/// `O(touched)`, not `O(n_aggregates)`), so a long-lived worker reuses its
/// allocations for the whole run.
#[derive(Debug)]
pub struct IngestBatch {
    /// Rows accumulated, in-scope or not.
    rows: u64,
    /// Aggregates with ≥ 1 value this batch, in first-touch order.
    touched: Vec<AggIdx>,
    /// `per_agg[a]` = this batch's in-scope values of aggregate `a`, in
    /// scan order (empty for untouched aggregates).
    per_agg: Vec<Vec<f64>>,
    /// All in-scope values of the batch, in scan order across aggregates.
    scope_vals: Vec<f64>,
}

impl IngestBatch {
    /// An empty batch for a query with `n_aggregates` result fields.
    pub fn new(n_aggregates: usize) -> Self {
        IngestBatch {
            rows: 0,
            touched: Vec::new(),
            per_agg: (0..n_aggregates).map(|_| Vec::new()).collect(),
            scope_vals: Vec::new(),
        }
    }

    /// Accumulate one row by its raw aggregate code
    /// ([`AGG_OUT_OF_SCOPE`] = out of scope), as produced by
    /// `ResultLayout::agg_of_block`.
    #[inline]
    pub fn push_resolved(&mut self, code: u32, value: f64) {
        self.rows += 1;
        if code == AGG_OUT_OF_SCOPE {
            return;
        }
        let bucket = &mut self.per_agg[code as usize];
        if bucket.is_empty() {
            self.touched.push(code);
        }
        bucket.push(value);
        self.scope_vals.push(value);
    }

    /// Accumulate one row by its `Option`-typed aggregate.
    #[inline]
    pub fn push(&mut self, agg: Option<AggIdx>, value: f64) {
        self.push_resolved(agg.unwrap_or(AGG_OUT_OF_SCOPE), value);
    }

    /// Rows accumulated since the last commit (in-scope or not).
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// `true` when nothing has been accumulated.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Reset for the next batch, keeping all allocations.
    fn clear(&mut self) {
        for &a in &self.touched {
            self.per_agg[a as usize].clear();
        }
        self.touched.clear();
        self.scope_vals.clear();
        self.rows = 0;
    }
}

/// Concurrent, per-aggregate-striped sample cache (see module docs).
#[derive(Debug)]
pub struct ShardedSampleCache {
    /// Per-aggregate value buckets, each locked independently of all the
    /// others. Poison-recovering: a holder dying mid-update (real panic or
    /// injected tear) costs that bucket its cached values on the next
    /// access — never the whole cache.
    buckets: Vec<RecoveringMutex<Vec<f64>>>,
    /// Rows offered per aggregate: the count estimates. Equal to the
    /// bucket's length unless the bucket was rebuilt after poisoning.
    ///
    /// Ordering: `Relaxed`. A monotonic statistical counter — nothing is
    /// published through it; the bucket contents it describes sit behind
    /// their own mutex (whose lock/unlock pair orders them), and readers
    /// that need a consistent final value (`exact_result`) only run after
    /// the worker threads were joined, which is itself a happens-before
    /// edge covering every `Relaxed` store.
    offered: Vec<AtomicU64>,
    /// Whether the aggregate is already in `nonempty`.
    ///
    /// Ordering: the `swap(true, AcqRel)` is the claim on the right to
    /// append to `nonempty`; it must not be reordered after the slot
    /// store, and losers must see the winner's claim.
    listed: Vec<AtomicBool>,
    /// Aggregates with ≥ 1 cached entry, for uniform random picks:
    /// a lock-free append-only array. `nonempty_len` reserves slots;
    /// unpublished slots hold [`UNPUBLISHED`] for a few nanoseconds until
    /// the appender's store lands.
    ///
    /// Ordering: slot stores are `Release` and reader loads `Acquire` —
    /// this pair is a real publication edge (the slot value gates reads
    /// of the bucket it names) and stays strong.
    nonempty: Vec<AtomicU32>,
    nonempty_len: AtomicUsize,
    /// Total rows ever observed (`CA.NRREAD`).
    ///
    /// Ordering: `Relaxed`. Like `offered`, a monotonic counter with no
    /// release-dependent payload: estimators divide by it, and a reader
    /// racing an ingest batch merely sees a slightly staler prefix —
    /// statistically indistinguishable from sampling a moment earlier.
    nr_read: AtomicU64,
    nr_rows_total: u64,
    resample_size: usize,
    /// In-scope row count across all aggregates (overall estimates).
    ///
    /// Ordering: `Relaxed`, same monotonic-counter argument as `nr_read`.
    scope_count: AtomicU64,
    /// In-scope measure sum as `f64` bits, advanced by a CAS fold (see
    /// [`ShardedSampleCache::observe_batch`]).
    scope_sum_bits: AtomicU64,
    /// Buckets rebuilt after lock poisoning / torn state.
    poison_recoveries: AtomicU64,
    /// Fault injection at the CacheShard site (chaos testing only).
    faults: Option<Arc<FaultInjector>>,
    /// Process-wide degradation counters recoveries are mirrored into.
    degrade_stats: Option<Arc<DegradeStats>>,
}

impl ShardedSampleCache {
    /// Create an empty cache for a query with `n_aggregates` result fields
    /// over a table of `nr_rows_total` rows.
    pub fn new(n_aggregates: usize, nr_rows_total: u64) -> Self {
        ShardedSampleCache {
            buckets: (0..n_aggregates).map(|_| RecoveringMutex::new(Vec::new())).collect(),
            offered: (0..n_aggregates).map(|_| AtomicU64::new(0)).collect(),
            listed: (0..n_aggregates).map(|_| AtomicBool::new(false)).collect(),
            nonempty: (0..n_aggregates).map(|_| AtomicU32::new(UNPUBLISHED)).collect(),
            nonempty_len: AtomicUsize::new(0),
            nr_read: AtomicU64::new(0),
            nr_rows_total,
            resample_size: DEFAULT_RESAMPLE_SIZE,
            scope_count: AtomicU64::new(0),
            scope_sum_bits: AtomicU64::new(0f64.to_bits()),
            poison_recoveries: AtomicU64::new(0),
            faults: None,
            degrade_stats: None,
        }
    }

    /// Attach a fault injector (CacheShard site) and the degradation
    /// counters recoveries feed. Without this, the ingest hot path pays
    /// a single `Option` branch.
    pub fn with_faults(mut self, injector: Arc<FaultInjector>, stats: Arc<DegradeStats>) -> Self {
        self.faults = Some(injector);
        self.degrade_stats = Some(stats);
        self
    }

    /// Lock one aggregate's bucket, rebuilding it first if its previous
    /// holder died mid-update. A rebuilt bucket loses its cached values
    /// (the atomic `offered` counts survive, so count estimates stay
    /// unbiased) and is counted in
    /// [`poison_recoveries`](ShardedSampleCache::poison_recoveries).
    fn bucket(&self, a: usize) -> MutexGuard<'_, Vec<f64>> {
        self.buckets[a].lock_recovering(|bucket| {
            *bucket = Vec::new();
            self.poison_recoveries.fetch_add(1, Ordering::Relaxed);
            if let Some(stats) = &self.degrade_stats {
                stats.poison_recoveries.fetch_add(1, Ordering::Relaxed);
            }
        })
    }

    /// Buckets rebuilt after lock poisoning / injected tears so far.
    pub fn poison_recoveries(&self) -> u64 {
        self.poison_recoveries.load(Ordering::Relaxed)
    }

    /// Override the fixed resample size.
    pub fn with_resample_size(mut self, size: usize) -> Self {
        assert!(size > 0, "resample size must be positive");
        self.resample_size = size;
        self
    }

    /// Add aggregate `a` to the `nonempty` array exactly once (first
    /// in-scope row wins the `listed` claim).
    #[inline]
    fn publish_nonempty(&self, a: AggIdx) {
        if !self.listed[a as usize].swap(true, Ordering::AcqRel) {
            let slot = self.nonempty_len.fetch_add(1, Ordering::AcqRel);
            self.nonempty[slot].store(a, Ordering::Release);
        }
    }

    /// Group-commit one accumulated morsel batch and clear it — the one
    /// way rows enter the cache, callable from any worker thread
    /// concurrently (DESIGN.md §14). Per batch this costs: one `Relaxed`
    /// add to `nr_read`; per *touched aggregate* one fault roll, one
    /// `offered` add, and one bucket-lock acquisition; one `scope_count`
    /// add; and a single scope-sum CAS — versus one of each **per row**
    /// when rows are committed one at a time.
    ///
    /// Equivalence with row-at-a-time ingest: each bucket receives its
    /// rows in scan order (a bucket depends on no other, so the
    /// cross-bucket interleaving is irrelevant); the scope sum is folded over
    /// `scope_vals` in scan order starting from the current global value,
    /// reproducing the sequential association bit for bit when only one
    /// writer is active. Counters advance at batch rather than row
    /// granularity, which no reader can distinguish from having sampled a
    /// moment earlier. The `CacheShard` fault site rolls once per touched
    /// aggregate (the unit of lock tenure) instead of once per row.
    pub fn observe_batch(&self, batch: &mut IngestBatch) {
        if batch.rows == 0 {
            return;
        }
        self.nr_read.fetch_add(batch.rows, Ordering::Relaxed);
        for &a in &batch.touched {
            let vals = &batch.per_agg[a as usize];
            // CacheShard fault site: a tear while holding this bucket's
            // lock; the recovery path below rebuilds it on acquisition.
            if let Some(inj) = &self.faults {
                if let Some(fault) = inj.roll(FaultSite::CacheShard) {
                    fault.stall();
                    if fault.error {
                        self.buckets[a as usize].mark_torn();
                    }
                }
            }
            self.offered[a as usize].fetch_add(vals.len() as u64, Ordering::Relaxed);
            self.bucket(a as usize).extend_from_slice(vals);
            self.publish_nonempty(a);
        }
        if !batch.scope_vals.is_empty() {
            self.scope_count.fetch_add(batch.scope_vals.len() as u64, Ordering::Relaxed);
            // Scan-order fold from the current global sum (not a
            // pre-summed delta): float addition is non-associative, and
            // this keeps the single-writer result bit-identical to per-row
            // accumulation. A lost CAS race refolds — batches are rare
            // enough that contention is negligible.
            let mut cur = self.scope_sum_bits.load(Ordering::Relaxed);
            loop {
                let next =
                    batch.scope_vals.iter().fold(f64::from_bits(cur), |s, &v| s + v).to_bits();
                match self.scope_sum_bits.compare_exchange_weak(
                    cur,
                    next,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(actual) => cur = actual,
                }
            }
        }
        batch.clear();
    }

    /// The exact per-aggregate `(counts, sums)` of the query once the whole
    /// table was streamed into the cache; `None` while the scan is partial
    /// or after a bucket was rebuilt (see `SampleCache::exact_result`).
    pub fn exact_result(&self) -> Option<(Vec<u64>, Vec<f64>)> {
        if self.nr_read() < self.nr_rows_total {
            return None;
        }
        // A rebuilt bucket lost values: sums would silently undercount,
        // so a recovered cache never claims exactness.
        if self.poison_recoveries() > 0 {
            return None;
        }
        // Relaxed: callers only get a `Some` after the ingest threads were
        // joined (nr_read == total), and the join orders their stores.
        let counts = self.offered.iter().map(|o| o.load(Ordering::Relaxed)).collect();
        let sums: Vec<f64> = (0..self.buckets.len()).map(|a| self.bucket(a).iter().sum()).collect();
        // Re-check: a tear recovered *while* summing also voids exactness.
        if self.poison_recoveries() > 0 {
            return None;
        }
        Some((counts, sums))
    }

    /// Number of cached entries for one aggregate (`CA.SIZE`).
    pub fn size(&self, agg: AggIdx) -> usize {
        self.bucket(agg as usize).len()
    }

    /// Total rows ever offered to one aggregate's bucket (counting rows a
    /// rebuilt bucket lost, so count estimates stay unbiased).
    pub fn seen(&self, agg: AggIdx) -> u64 {
        self.offered[agg as usize].load(Ordering::Relaxed)
    }

    /// Total rows considered so far across all workers (`CA.NRREAD`).
    pub fn nr_read(&self) -> u64 {
        self.nr_read.load(Ordering::Relaxed)
    }

    /// Total rows of the underlying table.
    pub fn nr_rows_total(&self) -> u64 {
        self.nr_rows_total
    }

    /// Number of aggregates with at least one cached entry.
    pub fn nonempty_count(&self) -> usize {
        self.nonempty_len.load(Ordering::Acquire)
    }

    /// Merged `PickAggregate` view: uniform over all aggregates for
    /// COUNT/SUM, uniform over the non-empty ones for AVG.
    pub fn pick_aggregate<R: Rng + ?Sized>(&self, fct: AggFct, rng: &mut R) -> Option<AggIdx> {
        match fct {
            AggFct::Count | AggFct::Sum => {
                if self.buckets.is_empty() {
                    None
                } else {
                    Some(rng.gen_range(0..self.buckets.len()) as AggIdx)
                }
            }
            AggFct::Avg => {
                let len = self.nonempty_len.load(Ordering::Acquire);
                if len == 0 {
                    return None;
                }
                let i = rng.gen_range(0..len);
                // Spin on the one unpublished slot we may have raced with —
                // retrying the same slot (not redrawing) keeps the RNG
                // stream identical to the sequential cache's.
                loop {
                    let v = self.nonempty[i].load(Ordering::Acquire);
                    if v != UNPUBLISHED {
                        return Some(v);
                    }
                    std::hint::spin_loop();
                }
            }
        }
    }

    /// Allocation-free fixed-size uniform subsample of one aggregate's
    /// cached entries; holds the bucket's lock for O(resample size) work,
    /// however many values the bucket holds (see [`ResampleScratch`]).
    pub fn resample_into<'s, R: Rng + ?Sized>(
        &self,
        agg: AggIdx,
        rng: &mut R,
        scratch: &'s mut ResampleScratch,
    ) -> &'s [f64] {
        let bucket = self.bucket(agg as usize);
        resample_into_scratch(&bucket, self.resample_size, rng, scratch);
        drop(bucket);
        &scratch.out
    }

    /// Merged cache estimate for one aggregate, same estimators as the
    /// sequential cache (`e_C = nrRows · seen / nrRead`, etc.). `None`
    /// before any row was read.
    pub fn estimate_with<R: Rng + ?Sized>(
        &self,
        agg: AggIdx,
        rng: &mut R,
        scratch: &mut ResampleScratch,
    ) -> Option<CacheEstimate> {
        let nr_read = self.nr_read();
        if nr_read == 0 {
            return None;
        }
        let e_c = self.nr_rows_total as f64 * self.seen(agg) as f64 / nr_read as f64;
        let v = self.resample_into(agg, rng, scratch);
        Some(estimate_from_resample(e_c, v))
    }

    /// Estimate of the query-scope-wide aggregate value (see the
    /// sequential cache for semantics).
    pub fn overall_estimate(&self, fct: AggFct) -> Option<f64> {
        let nr_read = self.nr_read();
        if nr_read == 0 {
            return None;
        }
        let scope_count = self.scope_count.load(Ordering::Relaxed);
        let scope_sum = f64::from_bits(self.scope_sum_bits.load(Ordering::Relaxed));
        let e_c = self.nr_rows_total as f64 * scope_count as f64 / nr_read as f64;
        match fct {
            AggFct::Count => Some(e_c),
            AggFct::Sum => {
                if scope_count == 0 {
                    Some(0.0)
                } else {
                    Some(e_c * scope_sum / scope_count as f64)
                }
            }
            AggFct::Avg => {
                if scope_count == 0 {
                    None
                } else {
                    Some(scope_sum / scope_count as f64)
                }
            }
        }
    }

    /// Normal-approximation confidence interval for one aggregate's
    /// average at `z` standard errors, over all cached entries.
    pub fn confidence_interval(&self, agg: AggIdx, z: f64) -> Option<(f64, f64)> {
        let values = self.bucket(agg as usize);
        if values.len() < 2 {
            return None;
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
        let se = (var / n).sqrt();
        Some((mean - z * se, mean + z * se))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use voxolap_data::dimension::LevelId;
    use voxolap_data::salary::SalaryConfig;
    use voxolap_data::schema::MeasureId;
    use voxolap_data::{DimId, RowScanner};

    use crate::exact::evaluate;
    use crate::query::Query;

    fn salary_setup() -> (voxolap_data::Table, Query) {
        let table = SalaryConfig::paper_scale().generate();
        let q = Query::builder(AggFct::Avg)
            .group_by(DimId(0), LevelId(1))
            .group_by(DimId(1), LevelId(1))
            .build(table.schema())
            .unwrap();
        (table, q)
    }

    /// Commit every row `scan` has left into `cache`, one `observe_batch`
    /// per scan block of at most `block_rows` rows (1: a row at a time).
    fn ingest(cache: &ShardedSampleCache, scan: &mut RowScanner<'_>, q: &Query, block_rows: usize) {
        let mut batch = IngestBatch::new(q.n_aggregates());
        let mut aggs = Vec::new();
        while let Some(b) = scan.next_block(block_rows) {
            q.layout().agg_of_block(b.dims, b.rows, &mut aggs);
            for (i, &r) in b.rows.iter().enumerate() {
                batch.push_resolved(aggs[i], b.values[r as usize]);
            }
            cache.observe_batch(&mut batch);
            assert!(batch.is_empty(), "commit drains the batch");
        }
    }

    /// Ingest the whole table into `cache` from `n_workers` scanners
    /// sharing one morsel pool, in blocks of at most `block_rows` rows.
    fn fill(
        cache: ShardedSampleCache,
        table: &voxolap_data::Table,
        q: &Query,
        n_workers: usize,
        seed: u64,
        block_rows: usize,
    ) -> ShardedSampleCache {
        let pool = table.morsel_pool(seed);
        std::thread::scope(|scope| {
            for _ in 0..n_workers {
                let (cache, pool) = (&cache, pool.clone());
                scope.spawn(move || {
                    let mut scan = table.scan_pooled(pool, MeasureId::PRIMARY);
                    ingest(cache, &mut scan, q, block_rows);
                });
            }
        });
        cache
    }

    /// [`fill`] a fresh cache a row at a time.
    fn parallel_fill(
        table: &voxolap_data::Table,
        q: &Query,
        n_workers: usize,
        seed: u64,
    ) -> ShardedSampleCache {
        let cache = ShardedSampleCache::new(q.n_aggregates(), table.row_count() as u64);
        fill(cache, table, q, n_workers, seed, 1)
    }

    #[test]
    fn parallel_ingest_counts_are_exact() {
        let (table, q) = salary_setup();
        let cache = parallel_fill(&table, &q, 4, 7);
        assert_eq!(cache.nr_read(), table.row_count() as u64);
        let total: usize = (0..q.n_aggregates() as u32).map(|a| cache.size(a)).sum();
        assert_eq!(total, table.row_count(), "no row lost across workers");
        let exact = evaluate(&q, &table);
        for agg in 0..q.n_aggregates() as u32 {
            assert_eq!(cache.seen(agg), exact.count(agg), "aggregate {agg}");
        }
    }

    #[test]
    fn merged_estimates_match_exact_after_full_ingest() {
        let (table, q) = salary_setup();
        let cache = parallel_fill(&table, &q, 4, 3);
        let exact = evaluate(&q, &table);
        let mut rng = StdRng::seed_from_u64(1);
        let mut scratch = ResampleScratch::new();
        for agg in 0..q.n_aggregates() as u32 {
            let est = cache.estimate_with(agg, &mut rng, &mut scratch).unwrap();
            assert!((est.count - exact.count(agg) as f64).abs() < 1e-6);
            assert!((est.avg - exact.value(agg)).abs() < 15.0, "resample mean in range");
        }
        // Scope-wide mean is exact with the whole table cached.
        let overall = cache.overall_estimate(AggFct::Avg).unwrap();
        let exact_mean: f64 = table.measure().iter().sum::<f64>() / table.row_count() as f64;
        assert!((overall - exact_mean).abs() < 1e-9);
    }

    #[test]
    fn pick_aggregate_covers_all_nonempty() {
        let (table, q) = salary_setup();
        let cache = parallel_fill(&table, &q, 3, 5);
        assert_eq!(cache.nonempty_count(), q.n_aggregates(), "salary scope covers all");
        let mut rng = StdRng::seed_from_u64(2);
        let mut hits = vec![false; q.n_aggregates()];
        for _ in 0..4000 {
            hits[cache.pick_aggregate(AggFct::Avg, &mut rng).unwrap() as usize] = true;
        }
        assert!(hits.iter().all(|&h| h), "every aggregate reachable");
    }

    #[test]
    fn exact_result_after_full_parallel_ingest() {
        let (table, q) = salary_setup();
        let partial = ShardedSampleCache::new(q.n_aggregates(), table.row_count() as u64);
        assert!(partial.exact_result().is_none());
        let cache = parallel_fill(&table, &q, 4, 7);
        let (counts, sums) = cache.exact_result().expect("full ingest is exact");
        let exact = evaluate(&q, &table);
        for agg in 0..q.n_aggregates() as u32 {
            assert_eq!(counts[agg as usize], exact.count(agg));
            assert!((sums[agg as usize] - exact.sum(agg)).abs() < 1e-6);
        }
    }

    #[test]
    fn zero_probability_faults_change_nothing() {
        use voxolap_faults::{FaultPlan, SiteSchedule};
        let (table, q) = salary_setup();
        let injector = Arc::new(FaultInjector::new(
            FaultPlan::new(1).with_site(FaultSite::CacheShard, SiteSchedule::error(0.0)),
        ));
        let stats = Arc::new(DegradeStats::default());
        let faulted = ShardedSampleCache::new(q.n_aggregates(), table.row_count() as u64)
            .with_faults(injector, stats);
        let plain = ShardedSampleCache::new(q.n_aggregates(), table.row_count() as u64);
        ingest(&faulted, &mut table.scan_shuffled(7), &q, 1);
        ingest(&plain, &mut table.scan_shuffled(7), &q, 1);
        assert_eq!(faulted.poison_recoveries(), 0);
        for agg in 0..q.n_aggregates() as u32 {
            assert_eq!(faulted.size(agg), plain.size(agg));
            assert_eq!(faulted.seen(agg), plain.seen(agg));
        }
        assert_eq!(faulted.exact_result(), plain.exact_result());
    }

    /// Full bucket contents in insertion order: with a resample size at
    /// least the bucket length, `resample_into` copies the bucket verbatim
    /// without consuming the resample RNG.
    fn bucket_contents(cache: &ShardedSampleCache, agg: AggIdx) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(0);
        let mut scratch = ResampleScratch::new();
        cache.resample_into(agg, &mut rng, &mut scratch).to_vec()
    }

    /// Ingest the whole shuffled table a row at a time into one cache and in
    /// batches of `batch_rows` (accumulated via [`IngestBatch`]) into the
    /// other, then assert every observable — bucket contents, offered
    /// counts, nr_read, scope aggregates, estimates — is identical. The
    /// same scan order also feeds the sequential
    /// [`SampleCache`](crate::cache::SampleCache) row by row: it is the
    /// reference the batched cache is defined against, so its observables
    /// must match bit for bit too.
    fn assert_batch_matches_row_at_a_time(
        table: &voxolap_data::Table,
        q: &Query,
        seed: u64,
        batch_rows: usize,
    ) {
        let mk = || {
            ShardedSampleCache::new(q.n_aggregates(), table.row_count() as u64)
                .with_resample_size(100_000)
        };
        let mut reference =
            crate::cache::SampleCache::new(q.n_aggregates(), table.row_count() as u64)
                .with_resample_size(100_000);
        let mut scan = table.scan_shuffled(seed);
        while let Some(r) = scan.next_row() {
            reference.observe(q.layout().agg_of_row(r.members), r.value);
        }
        let by_row = mk();
        ingest(&by_row, &mut table.scan_shuffled(seed), q, 1);
        let by_batch = mk();
        ingest(&by_batch, &mut table.scan_shuffled(seed), q, batch_rows);

        assert_eq!(by_batch.nr_read(), by_row.nr_read());
        assert_eq!(by_batch.nr_read(), reference.nr_read());
        assert_eq!(by_batch.nonempty_count(), by_row.nonempty_count());
        for agg in 0..q.n_aggregates() as u32 {
            assert_eq!(by_batch.seen(agg), by_row.seen(agg), "offered, agg {agg}");
            assert_eq!(by_batch.seen(agg), reference.seen(agg), "offered vs sequential, agg {agg}");
            assert_eq!(by_batch.size(agg), reference.size(agg), "size vs sequential, agg {agg}");
            assert_eq!(
                bucket_contents(&by_batch, agg).iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                bucket_contents(&by_row, agg).iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "bucket contents, agg {agg} (batch {batch_rows})"
            );
            let mut rng_a = StdRng::seed_from_u64(seed ^ 0xabc);
            let mut rng_b = StdRng::seed_from_u64(seed ^ 0xabc);
            let mut s_a = ResampleScratch::new();
            let mut s_b = ResampleScratch::new();
            assert_eq!(
                by_batch.estimate_with(agg, &mut rng_a, &mut s_a),
                by_row.estimate_with(agg, &mut rng_b, &mut s_b),
                "estimates, agg {agg}"
            );
            let mut rng_a = StdRng::seed_from_u64(seed ^ 0xabc);
            let mut rng_c = StdRng::seed_from_u64(seed ^ 0xabc);
            assert_eq!(
                by_batch.estimate_with(agg, &mut rng_a, &mut s_a),
                reference.estimate_with(agg, &mut rng_c, &mut s_b),
                "estimates vs sequential, agg {agg}"
            );
        }
        for fct in [AggFct::Avg, AggFct::Sum, AggFct::Count] {
            let a = by_batch.overall_estimate(fct).map(f64::to_bits);
            for (b, which) in [
                (by_row.overall_estimate(fct), "row-at-a-time"),
                (reference.overall_estimate(fct), "sequential"),
            ] {
                assert_eq!(a, b.map(f64::to_bits), "overall estimate vs {which} ({fct:?})");
            }
        }
        assert_eq!(by_batch.exact_result(), by_row.exact_result());
        assert_eq!(by_batch.exact_result(), reference.exact_result());
    }

    #[test]
    fn observe_batch_matches_row_at_a_time_over_seeds() {
        let (table, q) = salary_setup();
        for seed in [3u64, 7, 11, 19, 41] {
            // Batch sizes below, at, and above typical bucket traffic.
            for batch_rows in [1usize, 3, 17, 64, 1000] {
                assert_batch_matches_row_at_a_time(&table, &q, seed, batch_rows);
            }
        }
    }

    #[test]
    fn observe_batch_respects_filtered_out_rows() {
        // A filtered flights query: out-of-scope rows count toward nr_read
        // but never touch buckets or scope aggregates.
        let table = voxolap_data::flights::FlightsConfig::small().generate();
        let schema = table.schema();
        let ne = schema.dimension(DimId(0)).member_by_phrase("the North East").unwrap();
        let q = Query::builder(AggFct::Avg)
            .filter(DimId(0), ne)
            .group_by(DimId(1), LevelId(1))
            .build(schema)
            .unwrap();
        assert_batch_matches_row_at_a_time(&table, &q, 23, 113);
    }

    #[test]
    fn injected_tears_fire_and_recover_inside_observe_batch() {
        use voxolap_faults::{FaultPlan, SiteSchedule};
        let (table, q) = salary_setup();
        let injector = Arc::new(FaultInjector::new(
            FaultPlan::new(99).with_site(FaultSite::CacheShard, SiteSchedule::error(0.5)),
        ));
        let stats = Arc::new(DegradeStats::default());
        let cache = ShardedSampleCache::new(q.n_aggregates(), table.row_count() as u64)
            .with_faults(injector.clone(), stats.clone());
        let cache = fill(cache, &table, &q, 4, 7, usize::MAX);
        assert!(injector.injected(FaultSite::CacheShard) > 0, "tear site fires in batch path");
        assert!(cache.poison_recoveries() > 0, "torn buckets rebuilt");
        assert_eq!(stats.snapshot().poison_recoveries, cache.poison_recoveries());
        assert!(cache.exact_result().is_none(), "recovered cache never claims exactness");
        assert_eq!(cache.nr_read(), table.row_count() as u64);
        // Offered counts stay exact through tears.
        let exact = evaluate(&q, &table);
        for agg in 0..q.n_aggregates() as u32 {
            assert_eq!(cache.seen(agg), exact.count(agg), "offered counts survive tears");
        }
        let mut rng = StdRng::seed_from_u64(1);
        let mut scratch = ResampleScratch::new();
        for agg in 0..q.n_aggregates() as u32 {
            assert!(cache.estimate_with(agg, &mut rng, &mut scratch).is_some());
        }
    }

    #[test]
    fn parallel_batched_ingest_counts_are_exact() {
        let (table, q) = salary_setup();
        let cache = ShardedSampleCache::new(q.n_aggregates(), table.row_count() as u64);
        let cache = fill(cache, &table, &q, 4, 7, usize::MAX);
        assert_eq!(cache.nr_read(), table.row_count() as u64);
        let (counts, sums) = cache.exact_result().expect("full batched ingest is exact");
        let exact = evaluate(&q, &table);
        for agg in 0..q.n_aggregates() as u32 {
            assert_eq!(counts[agg as usize], exact.count(agg));
            assert!((sums[agg as usize] - exact.sum(agg)).abs() < 1e-6);
        }
    }

    /// Best-of-five nanoseconds per `estimate_with` call (resample size
    /// 200) on one bucket of `values` entries.
    fn estimate_ns_per_call(values: usize) -> f64 {
        let cache = ShardedSampleCache::new(1, values as u64).with_resample_size(200);
        let mut batch = IngestBatch::new(1);
        let mut fill = StdRng::seed_from_u64(values as u64);
        for _ in 0..values {
            batch.push(Some(0), fill.gen_range(0.0..1.0));
        }
        cache.observe_batch(&mut batch);
        let mut rng = StdRng::seed_from_u64(7);
        let mut scratch = ResampleScratch::new();
        let calls = 20_000;
        (0..5)
            .map(|_| {
                let start = std::time::Instant::now();
                for _ in 0..calls {
                    std::hint::black_box(cache.estimate_with(0, &mut rng, &mut scratch));
                }
                start.elapsed().as_nanos() as f64 / calls as f64
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// The timing form of `resample`'s pool-write guard (CI `multicore`
    /// job, release build): an estimate over a 16× longer bucket may cost
    /// at most 8× more. Refilling the index pool per call measured 18×
    /// on the 2-core host, the persistent pool 2.7× — what remains being
    /// cache misses on the 3.2 MB bucket itself.
    #[test]
    #[ignore = "timing gate; release build (CI `multicore` job)"]
    fn estimate_cost_does_not_follow_bucket_length() {
        let (small, large) = (estimate_ns_per_call(25_000), estimate_ns_per_call(400_000));
        println!(
            "estimate_with: {small:.0} ns at 25 000 values, {large:.0} ns at 400 000 ({:.1}x)",
            large / small
        );
        assert!(large <= 8.0 * small, "{large:.0} ns at 400 000 values vs {small:.0} at 25 000");
    }

    #[test]
    fn empty_cache_behaves_like_sequential() {
        let cache = ShardedSampleCache::new(4, 100);
        let mut rng = StdRng::seed_from_u64(0);
        let mut scratch = ResampleScratch::new();
        assert_eq!(cache.estimate_with(0, &mut rng, &mut scratch), None);
        assert_eq!(cache.overall_estimate(AggFct::Avg), None);
        assert_eq!(cache.pick_aggregate(AggFct::Avg, &mut rng), None);
        assert!(cache.pick_aggregate(AggFct::Count, &mut rng).is_some());
        assert_eq!(cache.confidence_interval(0, 1.96), None);
    }
}
