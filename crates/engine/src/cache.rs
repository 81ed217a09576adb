//! The sample cache of paper Algorithm 3.
//!
//! Rows stream from the database in random order; rows within the current
//! query scope are cached, indexed by the aggregate they belong to. The
//! cache supplies:
//!
//! * `size(a)` — number of cached entries per aggregate (`CA.SIZE`),
//!   maintained during insertion so it costs O(1);
//! * `nr_read()` — total rows considered, including out-of-scope ones
//!   (`CA.NRREAD`), the denominator of the count estimator;
//! * `resample(a)` — a fixed-size uniform subsample of one aggregate's
//!   cached entries (`CA.RESAMPLE`), keeping estimate cost constant as the
//!   cache fills;
//! * unbiased estimators for COUNT, SUM, and AVG (`CacheEstimate`);
//! * eligible-aggregate tracking for `PickAggregate` — for AVG only
//!   aggregates with at least one cached row are eligible, for COUNT/SUM
//!   *every* aggregate is (an empty bucket carries information once related
//!   to `nr_read`).
//!
//! [`SampleCache`] is the sequential reference: the planners run on
//! [`ShardedSampleCache`](crate::sharded::ShardedSampleCache), whose tests
//! pin its counts, sizes, overall estimates and exact sums against this
//! cache observation for observation. Its per-aggregate estimate differs:
//! the planners draw from the normal posterior of running moments, this
//! cache keeps the paper's fixed-size resample and is the subject of the
//! benchmark's `engine.estimate_ns`.

use rand::Rng;

use voxolap_data::dimension::MemberId;

use crate::query::{AggFct, AggIdx, ResultLayout};

// The fixed-size resample and the estimator arithmetic live in
// `crate::resample`; re-exported so `voxolap_engine::cache::*` keeps
// resolving.
use crate::resample::{estimate_from_resample, resample_into_scratch};
pub use crate::resample::{CacheEstimate, ResampleScratch, DEFAULT_RESAMPLE_SIZE};

/// Sample cache for one query (see module docs).
#[derive(Debug, Clone)]
pub struct SampleCache {
    /// Every in-scope row read, per aggregate: a bucket's length is its
    /// count statistic.
    buckets: Vec<Vec<f64>>,
    /// Aggregates with ≥ 1 cached entry, for O(1) uniform random picks.
    nonempty: Vec<AggIdx>,
    nr_read: u64,
    nr_rows_total: u64,
    resample_size: usize,
    /// Running statistics over the whole query scope, for baseline
    /// candidate generation.
    scope_count: u64,
    scope_sum: f64,
}

impl SampleCache {
    /// Create an empty cache for a query with `n_aggregates` result fields
    /// over a table of `nr_rows_total` rows.
    pub fn new(n_aggregates: usize, nr_rows_total: u64) -> Self {
        SampleCache {
            buckets: vec![Vec::new(); n_aggregates],
            nonempty: Vec::new(),
            nr_read: 0,
            nr_rows_total,
            resample_size: DEFAULT_RESAMPLE_SIZE,
            scope_count: 0,
            scope_sum: 0.0,
        }
    }

    /// Override the fixed resample size (default
    /// [`DEFAULT_RESAMPLE_SIZE`]).
    pub fn with_resample_size(mut self, size: usize) -> Self {
        assert!(size > 0, "resample size must be positive");
        self.resample_size = size;
        self
    }

    /// Observe one streamed row: `agg` is its aggregate (or `None` when the
    /// row falls outside the query scope), `value` its measure.
    pub fn observe(&mut self, agg: Option<AggIdx>, value: f64) {
        self.nr_read += 1;
        if let Some(a) = agg {
            let bucket = &mut self.buckets[a as usize];
            if bucket.is_empty() {
                self.nonempty.push(a);
            }
            bucket.push(value);
            self.scope_count += 1;
            self.scope_sum += value;
        }
    }

    /// Observe a raw fact row, resolving its aggregate through `layout`.
    pub fn observe_row(&mut self, layout: &ResultLayout, members: &[MemberId], value: f64) {
        self.observe(layout.agg_of_row(members), value);
    }

    /// The exact per-aggregate `(counts, sums)` of the query, available
    /// once the scanner streamed the **whole table** into the cache: every
    /// in-scope row was kept exactly once, so each bucket's length is the
    /// exact count and its sum the exact sum. `None` while the scan is
    /// partial.
    pub fn exact_result(&self) -> Option<(Vec<u64>, Vec<f64>)> {
        if self.nr_read < self.nr_rows_total {
            return None;
        }
        let counts = self.buckets.iter().map(|b| b.len() as u64).collect();
        let sums = self.buckets.iter().map(|b| b.iter().sum()).collect();
        Some((counts, sums))
    }

    /// Number of cached entries for one aggregate (`CA.SIZE`).
    pub fn size(&self, agg: AggIdx) -> usize {
        self.buckets[agg as usize].len()
    }

    /// Total rows offered to one aggregate's bucket — the count the
    /// estimators use; [`SampleCache::size`] as a `u64`.
    pub fn seen(&self, agg: AggIdx) -> u64 {
        self.buckets[agg as usize].len() as u64
    }

    /// Total rows considered so far (`CA.NRREAD`).
    pub fn nr_read(&self) -> u64 {
        self.nr_read
    }

    /// Total rows of the underlying table (`nrRows` in Algorithm 3).
    pub fn nr_rows_total(&self) -> u64 {
        self.nr_rows_total
    }

    /// Number of aggregates with at least one cached entry.
    pub fn nonempty_count(&self) -> usize {
        self.nonempty.len()
    }

    /// Pick a random aggregate eligible for speech evaluation
    /// (paper `PickAggregate`): uniform over all aggregates for COUNT/SUM,
    /// uniform over non-empty ones for AVG. Returns `None` when nothing is
    /// eligible yet.
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
                if self.nonempty.is_empty() {
                    None
                } else {
                    Some(self.nonempty[rng.gen_range(0..self.nonempty.len())])
                }
            }
        }
    }

    /// Fixed-size uniform subsample of one aggregate's cached entries
    /// (`CA.RESAMPLE`), drawn into `scratch`: returns the drawn slice, all
    /// entries if fewer than the resample size are cached.
    pub fn resample_into<'s, R: Rng + ?Sized>(
        &self,
        agg: AggIdx,
        rng: &mut R,
        scratch: &'s mut ResampleScratch,
    ) -> &'s [f64] {
        resample_into_scratch(&self.buckets[agg as usize], self.resample_size, rng, scratch);
        &scratch.out
    }

    /// Cache-based estimate for one aggregate (paper `CacheEstimate`):
    ///
    /// * `e_C = nrRows · size(a) / nrRead`
    /// * `e_S = e_C · mean(V)` over a fixed-size resample `V`
    /// * `e_A = e_S / e_C = mean(V)`
    ///
    /// `scratch` keeps the per-iteration loop allocation-free. Returns
    /// `None` before any row was read.
    pub fn estimate_with<R: Rng + ?Sized>(
        &self,
        agg: AggIdx,
        rng: &mut R,
        scratch: &mut ResampleScratch,
    ) -> Option<CacheEstimate> {
        if self.nr_read == 0 {
            return None;
        }
        let e_c = self.nr_rows_total as f64 * self.seen(agg) as f64 / self.nr_read as f64;
        let v = self.resample_into(agg, rng, scratch);
        Some(estimate_from_resample(e_c, v))
    }

    /// Estimate of the query-scope-wide aggregate value, used to seed
    /// baseline speech candidates before fine-grained samples exist.
    ///
    /// Returns `None` before any in-scope row was cached (for AVG) or before
    /// any row was read (COUNT/SUM).
    pub fn overall_estimate(&self, fct: AggFct) -> Option<f64> {
        if self.nr_read == 0 {
            return None;
        }
        let e_c = self.nr_rows_total as f64 * self.scope_count as f64 / self.nr_read as f64;
        match fct {
            AggFct::Count => Some(e_c),
            AggFct::Sum => {
                if self.scope_count == 0 {
                    Some(0.0)
                } else {
                    Some(e_c * self.scope_sum / self.scope_count as f64)
                }
            }
            AggFct::Avg => {
                if self.scope_count == 0 {
                    None
                } else {
                    Some(self.scope_sum / self.scope_count as f64)
                }
            }
        }
    }

    /// Normal-approximation confidence interval for one aggregate's average
    /// at `z` standard errors (e.g. `z = 1.96` for 95 %), based on all
    /// cached entries. `None` with fewer than two entries.
    ///
    /// Used by the §4.4 uncertainty extensions; "the way in which confidence
    /// bounds are calculated is not specific to vocalization".
    pub fn confidence_interval(&self, agg: AggIdx, z: f64) -> Option<(f64, f64)> {
        let bucket = &self.buckets[agg as usize];
        if bucket.len() < 2 {
            return None;
        }
        let n = bucket.len() as f64;
        let mean = bucket.iter().sum::<f64>() / n;
        let var = bucket.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
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
    use voxolap_data::DimId;

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

    fn fill_cache(table: &voxolap_data::Table, q: &Query, rows: usize, seed: u64) -> SampleCache {
        let mut cache = SampleCache::new(q.n_aggregates(), table.row_count() as u64);
        let mut scan = table.scan_shuffled(seed);
        for _ in 0..rows {
            match scan.next_row() {
                Some(r) => {
                    let agg = q.layout().agg_of_row(r.members);
                    cache.observe(agg, r.value);
                }
                None => break,
            }
        }
        cache
    }

    #[test]
    fn sizes_and_nr_read_track_insertions() {
        let (table, q) = salary_setup();
        let cache = fill_cache(&table, &q, 100, 7);
        assert_eq!(cache.nr_read(), 100);
        let total: usize = (0..q.n_aggregates() as u32).map(|a| cache.size(a)).sum();
        assert_eq!(total, 100, "salary query scope covers the whole table");
    }

    #[test]
    fn estimates_converge_to_exact_values() {
        let (table, q) = salary_setup();
        let exact = evaluate(&q, &table);
        let cache = fill_cache(&table, &q, 320, 3); // full table cached
        let mut rng = StdRng::seed_from_u64(1);
        let mut scratch = ResampleScratch::new();
        for agg in 0..q.n_aggregates() as u32 {
            let est = cache.estimate_with(agg, &mut rng, &mut scratch).unwrap();
            // Count estimate is exact with full scan.
            assert!((est.count - exact.count(agg) as f64).abs() < 1e-6);
            // Average from a resample of 10 is noisy but in range.
            assert!((est.avg - exact.value(agg)).abs() < 15.0);
        }
    }

    #[test]
    fn count_estimator_is_unbiased_over_seeds() {
        let (table, q) = salary_setup();
        let exact = evaluate(&q, &table);
        let agg = 0u32;
        let mut acc = 0.0;
        let n_seeds = 40;
        for seed in 0..n_seeds {
            let cache = fill_cache(&table, &q, 64, seed);
            acc += cache.nr_rows_total() as f64 * cache.size(agg) as f64 / cache.nr_read() as f64;
        }
        let mean_est = acc / n_seeds as f64;
        let truth = exact.count(agg) as f64;
        assert!(
            (mean_est - truth).abs() < truth * 0.25,
            "mean estimate {mean_est} vs exact {truth}"
        );
    }

    #[test]
    fn resample_is_capped_at_fixed_size() {
        let (table, q) = salary_setup();
        let cache = fill_cache(&table, &q, 320, 3);
        let mut rng = StdRng::seed_from_u64(5);
        let mut scratch = ResampleScratch::new();
        for agg in 0..q.n_aggregates() as u32 {
            let v = cache.resample_into(agg, &mut rng, &mut scratch);
            assert!(v.len() <= DEFAULT_RESAMPLE_SIZE);
            if cache.size(agg) >= DEFAULT_RESAMPLE_SIZE {
                assert_eq!(v.len(), DEFAULT_RESAMPLE_SIZE);
            } else {
                assert_eq!(v.len(), cache.size(agg));
            }
        }
    }

    #[test]
    fn pick_aggregate_avg_requires_cached_entries() {
        let (table, q) = salary_setup();
        let empty = SampleCache::new(q.n_aggregates(), table.row_count() as u64);
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(empty.pick_aggregate(AggFct::Avg, &mut rng), None);
        // COUNT/SUM can pick any aggregate even with an empty cache.
        assert!(empty.pick_aggregate(AggFct::Count, &mut rng).is_some());

        let filled = fill_cache(&table, &q, 50, 9);
        let picked = filled.pick_aggregate(AggFct::Avg, &mut rng).unwrap();
        assert!(filled.size(picked) > 0);
    }

    #[test]
    fn pick_aggregate_is_uniform_over_nonempty() {
        let (table, q) = salary_setup();
        let cache = fill_cache(&table, &q, 320, 3);
        let mut rng = StdRng::seed_from_u64(11);
        let mut hits = vec![0usize; q.n_aggregates()];
        for _ in 0..8000 {
            let a = cache.pick_aggregate(AggFct::Avg, &mut rng).unwrap();
            hits[a as usize] += 1;
        }
        let nonempty = cache.nonempty_count();
        let expect = 8000.0 / nonempty as f64;
        for (a, &h) in hits.iter().enumerate() {
            if cache.size(a as u32) > 0 {
                assert!(
                    (h as f64 - expect).abs() < expect * 0.5,
                    "aggregate {a} picked {h} times, expected ~{expect}"
                );
            } else {
                assert_eq!(h, 0);
            }
        }
    }

    #[test]
    fn overall_estimate_tracks_scope_mean() {
        let (table, q) = salary_setup();
        let cache = fill_cache(&table, &q, 320, 3);
        let overall = cache.overall_estimate(AggFct::Avg).unwrap();
        let n = table.row_count();
        let exact_mean = (0..n).map(|r| table.value_at(r)).sum::<f64>() / n as f64;
        assert!((overall - exact_mean).abs() < 1e-9, "full cache reproduces scope mean");
        // Count estimate equals table size with a full scan.
        assert!((cache.overall_estimate(AggFct::Count).unwrap() - 320.0).abs() < 1e-9);
    }

    #[test]
    fn overall_estimate_none_before_rows() {
        let cache = SampleCache::new(4, 100);
        assert_eq!(cache.overall_estimate(AggFct::Avg), None);
        assert_eq!(cache.overall_estimate(AggFct::Count), None);
    }

    #[test]
    fn confidence_interval_shrinks_with_samples() {
        let (table, q) = salary_setup();
        let small = fill_cache(&table, &q, 60, 3);
        let big = fill_cache(&table, &q, 320, 3);
        // Find an aggregate with entries in both caches.
        let agg = (0..q.n_aggregates() as u32)
            .find(|&a| small.size(a) >= 2 && big.size(a) > small.size(a))
            .expect("some aggregate grows");
        let (lo_s, hi_s) = small.confidence_interval(agg, 1.96).unwrap();
        let (lo_b, hi_b) = big.confidence_interval(agg, 1.96).unwrap();
        assert!(hi_b - lo_b < hi_s - lo_s, "more samples, tighter interval");
    }

    #[test]
    fn confidence_interval_needs_two_entries() {
        let cache = SampleCache::new(2, 10);
        assert_eq!(cache.confidence_interval(0, 1.96), None);
    }

    #[test]
    fn exact_result_requires_full_uncapped_scan() {
        let (table, q) = salary_setup();
        let partial = fill_cache(&table, &q, 100, 3);
        assert!(partial.exact_result().is_none(), "partial scan is not exact");
        let full = fill_cache(&table, &q, 320, 3);
        let (counts, sums) = full.exact_result().expect("full scan is exact");
        let exact = evaluate(&q, &table);
        for agg in 0..q.n_aggregates() as u32 {
            assert_eq!(counts[agg as usize], exact.count(agg));
            assert!((sums[agg as usize] - exact.sum(agg)).abs() < 1e-9);
        }
    }
}
