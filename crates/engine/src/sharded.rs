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
//! * each aggregate's bucket is a fixed-size running summary
//!   ([`Moments`]: n, Σx and shifted second moments) behind its **own**
//!   mutex, so two workers only contend when their rows land in the same
//!   aggregate, and a bucket costs the same however many rows it saw;
//! * the global counters (`nr_read`, scope count/sum) are atomics —
//!   `nr_read` in particular is bumped once per row by every worker and
//!   must not serialize them;
//! * the non-empty aggregate list used by `PickAggregate` is a lock-free
//!   append-only array (capacity = number of aggregates, slots reserved by
//!   `fetch_add`, published by store) — `pick_aggregate` runs every planner
//!   iteration on every thread and must not take a global lock.
//!
//! Readers (planner sampling threads) see a **merged view**: `posterior`,
//! `pick_aggregate`, and `overall_estimate` are computed over the union of
//! all workers' insertions. Counts, sizes, overall estimates and exact
//! sums are those of the sequential reference
//! [`SampleCache`](crate::cache::SampleCache) bit for bit; the per-aggregate
//! estimate is the normal posterior of the bucket mean instead of the
//! reference's fixed-size subsample (DESIGN.md §2). Since the pool hands
//! out whole chunks of the seeded two-level scan order, the union of the
//! workers' progress at any point is a prefix of that order — a uniform
//! random subset of the table, which is the property all the paper's
//! estimators rest on (see `voxolap_data::chunk` for the uniformity
//! argument).

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use rand::Rng;

use crate::query::{AggFct, AggIdx, AGG_OUT_OF_SCOPE};

/// Sentinel marking a reserved-but-not-yet-written `nonempty` slot.
const UNPUBLISHED: u32 = u32::MAX;

/// One aggregate's bucket: the running summary of every in-scope value
/// committed to it, in commit order — a fixed-size record in place of the
/// values themselves (online aggregation, Hellerstein, Haas & Wang 1997).
///
/// `sum` is a plain fold in commit order, so the exact sums a full scan
/// admits carry the bits `values.iter().sum()` would. The spread is kept
/// as moments shifted by the bucket's first value `K`: Σ(x − K) and
/// Σ(x − K)² stay small for a large-offset, low-spread measure, where the
/// textbook Σx² − (Σx)²/n would cancel catastrophically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Moments {
    n: u64,
    sum: f64,
    shift: f64,
    shifted_sum: f64,
    shifted_sq: f64,
}

impl Default for Moments {
    fn default() -> Self {
        // `-0.0` is the empty sum of `Iterator::sum`, so an empty bucket's
        // exact sum has its bits too.
        Moments { n: 0, sum: -0.0, shift: 0.0, shifted_sum: 0.0, shifted_sq: 0.0 }
    }
}

impl Moments {
    /// Fold one value in.
    #[inline]
    pub(crate) fn push(&mut self, x: f64) {
        if self.n == 0 {
            self.shift = x;
        }
        let d = x - self.shift;
        self.n += 1;
        self.sum += x;
        self.shifted_sum += d;
        self.shifted_sq += d * d;
    }

    /// Values folded in.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Σx, folded in commit order.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// The mean Σx / n; `NaN` when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.sum / self.n as f64
        }
    }

    /// The unbiased sample variance s²; 0 below two values.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let n = self.n as f64;
        ((self.shifted_sq - self.shifted_sum * self.shifted_sum / n) / (n - 1.0)).max(0.0)
    }

    /// Every field as raw bits, for bit-parity checks.
    pub fn bits(&self) -> [u64; 5] {
        let f = [self.sum, self.shift, self.shifted_sum, self.shifted_sq].map(f64::to_bits);
        [self.n, f[0], f[1], f[2], f[3]]
    }
}

/// The normal posterior of one aggregate's mean, as the cache holds it
/// ([`ShardedSampleCache::posterior`]): an O(1) read of a bucket's
/// [`Moments`] and the shared counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Posterior {
    /// Estimated row count of the aggregate's scope,
    /// `ê_C = nrRows · seen / nrRead` (deterministic).
    pub count: f64,
    /// Values in the bucket.
    pub n: u64,
    /// The bucket mean x̄; `NaN` when the bucket is empty.
    pub mean: f64,
    /// Standard error of x̄, `s/√n · √(1 − n/ê_C)`: the finite-population
    /// factor makes it 0 once every row of the scope was read. 0 below two
    /// values.
    pub se: f64,
}

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
/// bit-parity). Each bucket folds its group in scan order under its lock
/// for the same reason.
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
    /// Per-aggregate running summaries, each locked independently of all
    /// the others. A plain mutex: the cache lives for one run, and a
    /// member panicking while it holds a bucket ends that run (see
    /// `Team::sample`), so no reader ever needs a rebuilt bucket.
    buckets: Vec<Mutex<Moments>>,
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
    /// Ordering: `Relaxed`. A monotonic counter with no release-dependent
    /// payload: estimators divide by it, and a reader racing an ingest
    /// batch merely sees a slightly staler prefix — statistically
    /// indistinguishable from sampling a moment earlier. Readers that need
    /// a consistent final value (`exact_result`) only run after the worker
    /// threads were joined, which is itself a happens-before edge covering
    /// every `Relaxed` store.
    nr_read: AtomicU64,
    nr_rows_total: u64,
    /// In-scope row count across all aggregates (overall estimates).
    ///
    /// Ordering: `Relaxed`, same monotonic-counter argument as `nr_read`.
    scope_count: AtomicU64,
    /// In-scope measure sum as `f64` bits, advanced by a CAS fold (see
    /// [`ShardedSampleCache::observe_batch`]).
    scope_sum_bits: AtomicU64,
}

impl ShardedSampleCache {
    /// Create an empty cache for a query with `n_aggregates` result fields
    /// over a table of `nr_rows_total` rows.
    pub fn new(n_aggregates: usize, nr_rows_total: u64) -> Self {
        ShardedSampleCache {
            buckets: (0..n_aggregates).map(|_| Mutex::new(Moments::default())).collect(),
            listed: (0..n_aggregates).map(|_| AtomicBool::new(false)).collect(),
            nonempty: (0..n_aggregates).map(|_| AtomicU32::new(UNPUBLISHED)).collect(),
            nonempty_len: AtomicUsize::new(0),
            nr_read: AtomicU64::new(0),
            nr_rows_total,
            scope_count: AtomicU64::new(0),
            scope_sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Lock one aggregate's bucket. A poisoned bucket means a member of
    /// this run panicked while holding it, and that panic ends the run;
    /// the member that meets the poison panics too rather than read a
    /// half-written bucket.
    fn bucket(&self, a: usize) -> MutexGuard<'_, Moments> {
        self.buckets[a].lock().expect("a team member panicked holding this bucket")
    }

    /// Add aggregate `a` to the `nonempty` array exactly once (first
    /// in-scope row wins the `listed` claim). A plain load answers every
    /// later call, so only the first touches of `a` pay a locked swap.
    #[inline]
    fn publish_nonempty(&self, a: AggIdx) {
        let listed = &self.listed[a as usize];
        if !listed.load(Ordering::Acquire) && !listed.swap(true, Ordering::AcqRel) {
            let slot = self.nonempty_len.fetch_add(1, Ordering::AcqRel);
            self.nonempty[slot].store(a, Ordering::Release);
        }
    }

    /// Group-commit one accumulated morsel batch and clear it — the one
    /// way rows enter the cache, callable from any worker thread
    /// concurrently (DESIGN.md §14). Per batch this costs: one `Relaxed`
    /// add to `nr_read`; per *touched aggregate* one bucket-lock
    /// acquisition; one `scope_count` add; and a single scope-sum CAS —
    /// versus one of each **per row** when rows are committed one at a
    /// time.
    ///
    /// Equivalence with row-at-a-time ingest: each bucket receives its
    /// rows in scan order (a bucket depends on no other, so the
    /// cross-bucket interleaving is irrelevant); the scope sum is folded over
    /// `scope_vals` in scan order starting from the current global value,
    /// reproducing the sequential association bit for bit when only one
    /// writer is active. Counters advance at batch rather than row
    /// granularity, which no reader can distinguish from having sampled a
    /// moment earlier.
    pub fn observe_batch(&self, batch: &mut IngestBatch) {
        if batch.rows == 0 {
            return;
        }
        self.nr_read.fetch_add(batch.rows, Ordering::Relaxed);
        for &a in &batch.touched {
            let vals = &batch.per_agg[a as usize];
            let mut bucket = self.bucket(a as usize);
            vals.iter().for_each(|&v| bucket.push(v));
            drop(bucket);
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
    /// (see `SampleCache::exact_result`).
    pub fn exact_result(&self) -> Option<(Vec<u64>, Vec<f64>)> {
        if self.nr_read() < self.nr_rows_total {
            return None;
        }
        // Callers only get a `Some` after the ingest threads were joined
        // (nr_read == total), and the join orders their stores.
        Some(
            (0..self.buckets.len() as AggIdx)
                .map(|a| {
                    let m = self.moments(a);
                    (m.n(), m.sum())
                })
                .unzip(),
        )
    }

    /// Number of values folded into one aggregate's bucket (`CA.SIZE`).
    pub fn size(&self, agg: AggIdx) -> usize {
        self.bucket(agg as usize).n() as usize
    }

    /// One aggregate's running summary, copied out under its lock.
    pub fn moments(&self, agg: AggIdx) -> Moments {
        *self.bucket(agg as usize)
    }

    /// Total rows offered to one aggregate's bucket — the count the
    /// estimators use; [`ShardedSampleCache::size`] as a `u64`.
    pub fn seen(&self, agg: AggIdx) -> u64 {
        self.bucket(agg as usize).n()
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

    /// The normal posterior of one aggregate's mean: `ê_C`, x̄ and its
    /// standard error (see [`Posterior`]). O(1) under the bucket's lock,
    /// however many rows the bucket saw — the property paper §4.3 fixes
    /// its subsample size for. `None` before any row was read.
    pub fn posterior(&self, agg: AggIdx) -> Option<Posterior> {
        let nr_read = self.nr_read();
        if nr_read == 0 {
            return None;
        }
        let m = self.moments(agg);
        let n = m.n() as f64;
        let count = self.nr_rows_total as f64 * n / nr_read as f64;
        // n ≥ 2 implies `count` > 0.
        let se =
            if m.n() < 2 { 0.0 } else { (m.variance() / n * (1.0 - n / count).max(0.0)).sqrt() };
        Some(Posterior { count, n: m.n(), mean: m.mean(), se })
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
    /// average at `z` standard errors: the [`posterior`] mean ± `z`·se, so
    /// an exhaustive scan has width 0. `None` below two values.
    ///
    /// [`posterior`]: ShardedSampleCache::posterior
    pub fn confidence_interval(&self, agg: AggIdx, z: f64) -> Option<(f64, f64)> {
        let p = self.posterior(agg).filter(|p| p.n >= 2)?;
        Some((p.mean - z * p.se, p.mean + z * p.se))
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
        for agg in 0..q.n_aggregates() as u32 {
            let post = cache.posterior(agg).unwrap();
            assert!((post.count - exact.count(agg) as f64).abs() < 1e-6);
            assert!((post.mean - exact.value(agg)).abs() < 1e-9, "the bucket mean is exact");
            assert_eq!(post.se, 0.0, "nothing left unread, agg {agg}");
        }
        // Scope-wide mean is exact with the whole table cached.
        let overall = cache.overall_estimate(AggFct::Avg).unwrap();
        let n = table.row_count();
        let exact_mean = (0..n).map(|r| table.value_at(r)).sum::<f64>() / n as f64;
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

    /// Ingest the whole shuffled table a row at a time into one cache and in
    /// batches of `batch_rows` (accumulated via [`IngestBatch`]) into the
    /// other, then assert every observable — bucket moments, counts,
    /// nr_read, scope aggregates, posteriors — is identical bit for
    /// bit. The same scan order also feeds the sequential
    /// [`SampleCache`](crate::cache::SampleCache) row by row: it is the
    /// reference the batched cache is defined against, so counts, sizes,
    /// `nr_read`, overall estimates and exact sums must match it bit for
    /// bit too (its per-aggregate estimate is a subsample, not a posterior,
    /// so that one is not compared).
    fn assert_batch_matches_row_at_a_time(
        table: &voxolap_data::Table,
        q: &Query,
        seed: u64,
        batch_rows: usize,
    ) {
        let mk = || ShardedSampleCache::new(q.n_aggregates(), table.row_count() as u64);
        let mut reference =
            crate::cache::SampleCache::new(q.n_aggregates(), table.row_count() as u64);
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
            assert_eq!(by_batch.seen(agg), by_row.seen(agg), "seen, agg {agg}");
            assert_eq!(by_batch.seen(agg), reference.seen(agg), "seen vs sequential, agg {agg}");
            assert_eq!(by_batch.size(agg), reference.size(agg), "size vs sequential, agg {agg}");
            assert_eq!(
                by_batch.moments(agg).bits(),
                by_row.moments(agg).bits(),
                "bucket moments, agg {agg} (batch {batch_rows})"
            );
            assert_eq!(by_batch.posterior(agg), by_row.posterior(agg), "posterior, agg {agg}");
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
        let exact_bits = |exact: Option<(Vec<u64>, Vec<f64>)>| {
            exact.map(|(counts, sums)| {
                (counts, sums.iter().map(|s| s.to_bits()).collect::<Vec<_>>())
            })
        };
        let batch = exact_bits(by_batch.exact_result());
        assert!(batch.is_some(), "the whole table was streamed");
        assert_eq!(batch, exact_bits(by_row.exact_result()));
        assert_eq!(batch, exact_bits(reference.exact_result()), "exact sums vs `iter().sum()`");
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

    /// A bucket of `values` drawn by `draw` from a seeded RNG, committed in
    /// one batch, as (cache, the values in commit order).
    fn one_bucket(
        values: usize,
        draw: impl Fn(&mut StdRng) -> f64,
    ) -> (ShardedSampleCache, Vec<f64>) {
        let cache = ShardedSampleCache::new(1, 10 * values as u64);
        let mut rng = StdRng::seed_from_u64(values as u64);
        let vals: Vec<f64> = (0..values).map(|_| draw(&mut rng)).collect();
        let mut batch = IngestBatch::new(1);
        vals.iter().for_each(|&v| batch.push(Some(0), v));
        cache.observe_batch(&mut batch);
        (cache, vals)
    }

    #[test]
    fn shifted_moments_keep_the_variance_of_a_large_offset_bucket() {
        // 1e6 + U(0, 1): the textbook Σx² − (Σx)²/n loses every digit of
        // a 1/12 variance next to 1e12-sized squares.
        let (cache, vals) = one_bucket(100_000, |rng| 1e6 + rng.gen_range(0.0..1.0));
        let n = vals.len() as f64;
        let mean = vals.iter().sum::<f64>() / n;
        let two_pass = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
        let var = cache.moments(0).variance();
        assert!((var - two_pass).abs() <= 1e-9 * two_pass, "{var} vs two-pass {two_pass}");
        assert_eq!(cache.moments(0).mean(), mean, "x̄ is Σx / n");
    }

    #[test]
    fn posterior_se_carries_the_finite_population_factor() {
        // 400 of 4 000 rows read, all in one aggregate: ê_C = 4 000, and
        // se = s/√n · √(1 − 400/4 000).
        let (cache, vals) = one_bucket(400, |rng| rng.gen_range(0.0..10.0));
        let post = cache.posterior(0).unwrap();
        assert_eq!((post.count, post.n), (4_000.0, 400));
        let s2 = cache.moments(0).variance();
        let want = (s2 / 400.0 * 0.9).sqrt();
        assert!((post.se - want).abs() <= 1e-12 * want, "{} vs {want}", post.se);
        let (lo, hi) = cache.confidence_interval(0, 2.0).unwrap();
        assert_eq!((lo, hi), (post.mean - 2.0 * post.se, post.mean + 2.0 * post.se));
        assert!((post.mean - vals.iter().sum::<f64>() / 400.0).abs() < 1e-12);
    }

    #[test]
    fn posterior_below_two_values_is_a_point() {
        let (cache, vals) = one_bucket(1, |rng| rng.gen_range(0.0..10.0));
        let post = cache.posterior(0).unwrap();
        assert_eq!((post.n, post.mean, post.se), (1, vals[0], 0.0));
        assert_eq!(cache.confidence_interval(0, 1.96), None);
    }

    #[test]
    fn an_empty_bucket_sums_to_the_bits_of_an_empty_sum() {
        let empty: f64 = std::iter::empty::<f64>().sum();
        assert_eq!(Moments::default().sum().to_bits(), empty.to_bits());
    }

    #[test]
    fn empty_cache_behaves_like_sequential() {
        let cache = ShardedSampleCache::new(4, 100);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(cache.posterior(0), None);
        assert_eq!(cache.overall_estimate(AggFct::Avg), None);
        assert_eq!(cache.pick_aggregate(AggFct::Avg, &mut rng), None);
        assert!(cache.pick_aggregate(AggFct::Count, &mut rng).is_some());
        assert_eq!(cache.confidence_interval(0, 1.96), None);
    }
}
