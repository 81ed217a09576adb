//! Cross-query semantic cache (DESIGN.md §9).
//!
//! The holistic engine is fast for a *single* query, but a voice session
//! issues streams of repeated and overlapping queries, and every `vocalize`
//! call cold-starts from row zero. This module caches work across queries
//! at two levels, both keyed by canonical query identities
//! ([`QueryKey`] / [`ScopeKey`]):
//!
//! * **Exact results** — once a query's exact per-aggregate counts and sums
//!   are known (the Optimal variant always computes them; a Holistic run
//!   that exhausts its scanner ends up with them in the sample cache), an
//!   identical repeat query skips sampling entirely and plans its speech
//!   against the exact aggregates. The plan chosen is then kept beside the
//!   aggregates it was scored on ([`PlanRecord`]), so the next repeat
//!   skips the scoring too.
//! * **Sample snapshots** — *which* rows a run sampled: the scan seed and
//!   its morsel pool's per-chunk progress, a few hundred bytes at any
//!   table size, never a copy of a row. A *new* query over the same scope
//!   (same measure and filters — group-by only partitions the scope)
//!   replays exactly those rows from the pinned revision through its own
//!   `ResultLayout` and resumes the seeded scan where the donor left off.
//!   Because rows stream in a seeded pseudo-random order, the donor's
//!   prefix is a uniform sample for *any* query over the same scope,
//!   preserving the invariant of paper Algorithm 3.
//!
//! The cache is shard-locked (entries hash to one of a few independently
//! locked shards) with a per-shard byte budget and least-recently-used
//! eviction, and keeps hit/miss/admission/eviction counters for the
//! server's `/stats` endpoint.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::exact::ExactResult;
use crate::poison::RecoveringMutex;
use crate::query::{AggFct, QueryKey, ScopeKey};

/// Number of independently locked cache shards.
const N_SHARDS: usize = 8;

/// Approximate fixed overhead of one cache entry (map slot, key, header).
const ENTRY_OVERHEAD: usize = 128;

/// Snapshot of a finished run's uniform sample over one query scope: the
/// consumed set of its seeded scan. It holds no row — the table revision
/// is immutable and in memory, so `(seed, progress)` names the sample and
/// a warm start reads it back (`Table::scan_consumed`).
#[derive(Debug, Clone)]
pub struct SampleSnapshot {
    /// Scan seed the rows were drawn under; warm starts require an exact
    /// match so the resumed scan continues the same permutation.
    pub seed: u64,
    /// Per-chunk-position progress of the donor's morsel pool (rows
    /// consumed per claimed position of the permuted chunk order,
    /// trailing zeros trimmed). A warm start resumes the pool from these
    /// watermarks — with any worker count, since the consumed set is a
    /// property of the scan order, not of the donor's thread layout.
    pub progress: Vec<u32>,
    /// Total rows read (the sum of `progress`), including out-of-scope
    /// ones — the `nr_read` denominator a replayed cache starts from.
    pub nr_read: u64,
    /// Table version the sample was drawn against. A snapshot whose
    /// version trails the live table is *repaired* — rebased onto the
    /// grown scan order (see [`crate::repair`]) — never discarded.
    pub version: u64,
    /// Row count of that table version; repair uses it to locate the
    /// appended suffix and size the proportional suffix read.
    pub table_rows: u64,
}

impl SampleSnapshot {
    fn approx_bytes(&self) -> usize {
        // Watermarks plus the version and table-row stamps.
        self.progress.len() * 4 + 2 * std::mem::size_of::<u64>() + ENTRY_OVERHEAD
    }
}

/// The speech an exhaustive scorer chose against one entry's aggregates,
/// as indices into the speech space the planner re-derives from those same
/// aggregates — this crate knows no speech. It is a pure function of the
/// aggregates it sits beside and of what `fingerprint` names — everything
/// else the planner's space depends on — so it needs no version stamp: it
/// is dropped with its entry and never outlives the numbers it was scored
/// on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanRecord {
    /// The winning path in speaking order: the baseline candidate's
    /// ordinal, then refinement catalogue ids. Empty when the space held no
    /// valid speech.
    pub path: Vec<u32>,
    /// Size of the scored search space (the root included).
    pub tree_nodes: usize,
    /// Whether the node cap cut the space.
    pub truncated: bool,
    /// Fingerprint of what the space was opened and scored under besides
    /// the aggregates: the planner configuration, and whatever of the query
    /// its [`QueryKey`] canonicalizes away but the planner's enumeration
    /// order follows (the GROUP BY order as written). A reader whose
    /// fingerprint differs rescores.
    pub fingerprint: u64,
}

/// Exact per-aggregate aggregates of a completed query, sufficient to
/// reconstruct the [`ExactResult`] of any aggregation function over the
/// same layout.
#[derive(Debug, Clone)]
pub struct ExactAggregates {
    /// Per-aggregate scope row counts, in layout order.
    pub counts: Vec<u64>,
    /// Per-aggregate measure sums, in layout order.
    pub sums: Vec<f64>,
    /// The plan slot: set at most once per value, by
    /// [`SemanticCache::admit_plan`].
    plan: OnceLock<PlanRecord>,
}

impl ExactAggregates {
    fn new(counts: Vec<u64>, sums: Vec<f64>) -> Self {
        ExactAggregates { counts, sums, plan: OnceLock::new() }
    }

    /// Rebuild the exact result for an aggregation function.
    pub fn to_result(&self, fct: AggFct) -> ExactResult {
        ExactResult::from_parts(fct, self.counts.clone(), self.sums.clone())
    }

    /// The plan slot is inline, so an entry is charged for it from
    /// admission on; the path's few ids ride in the overhead.
    fn approx_bytes(&self) -> usize {
        self.counts.len() * 16 + std::mem::size_of::<OnceLock<PlanRecord>>() + ENTRY_OVERHEAD
    }
}

/// Point-in-time counter snapshot of a [`SemanticCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Exact-result lookups that found an entry.
    pub exact_hits: u64,
    /// Exact hits answered from the entry's plan slot; the other
    /// `exact_hits − plan_hits` were rescored.
    pub plan_hits: u64,
    /// Snapshot lookups that found a compatible warm-start donor.
    pub warm_hits: u64,
    /// Rows warm starts replayed from the pinned revision: the read cost
    /// `rows_read` leaves out (a repair's suffix rows are in both).
    pub replayed_rows: u64,
    /// Queries that found neither (reported by the engines).
    pub misses: u64,
    /// Entries admitted (exact results + snapshots).
    pub admissions: u64,
    /// Entries evicted to stay within the byte budget.
    pub evictions: u64,
    /// Approximate bytes currently held across all shards.
    pub bytes_used: u64,
    /// Shards rebuilt (emptied) after lock poisoning or injected tears.
    pub poison_recoveries: u64,
    /// Exact entries dropped because the table moved past their version.
    pub exact_invalidations: u64,
    /// Sample snapshots rebased onto a grown table after an append.
    pub snapshot_repairs: u64,
    /// Suffix rows repairs added to their snapshots (the repair cost: the
    /// following warm start reads them).
    pub repair_rows_read: u64,
    /// Version-stale exact results served under §12 degradation, always
    /// marked `stale` in the answer.
    pub stale_serves: u64,
}

/// Outcome of a version-checked exact lookup.
#[derive(Debug, Clone)]
pub enum ExactLookup {
    /// Entry computed against the queried table version — safe to serve.
    Fresh(Arc<ExactAggregates>),
    /// Entry from an older version. It is left in the cache: the caller
    /// either serves it marked `stale` (§12 degradation ladder) or calls
    /// [`SemanticCache::invalidate_exact`] and replans fresh.
    Stale(Arc<ExactAggregates>),
    /// No entry for this key.
    Miss,
}

struct ExactEntry {
    data: Arc<ExactAggregates>,
    /// Table version the aggregates were computed against.
    version: u64,
    bytes: usize,
    last_used: u64,
}

struct SampleEntry {
    snap: Arc<SampleSnapshot>,
    bytes: usize,
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    exact: HashMap<QueryKey, ExactEntry>,
    samples: HashMap<ScopeKey, SampleEntry>,
    bytes: usize,
}

impl Shard {
    /// Evict least-recently-used entries (across both maps) until the
    /// shard fits its budget. Returns the number of evictions.
    fn enforce_budget(&mut self, budget: usize) -> u64 {
        let mut evicted = 0;
        while self.bytes > budget {
            let oldest_exact = self.exact.iter().min_by_key(|(_, e)| e.last_used);
            let oldest_sample = self.samples.iter().min_by_key(|(_, e)| e.last_used);
            match (oldest_exact, oldest_sample) {
                (Some((k, e)), Some((s, se))) => {
                    if e.last_used <= se.last_used {
                        let k = k.clone();
                        self.bytes -= self.exact.remove(&k).map_or(0, |e| e.bytes);
                    } else {
                        let s = s.clone();
                        self.bytes -= self.samples.remove(&s).map_or(0, |e| e.bytes);
                    }
                }
                (Some((k, _)), None) => {
                    let k = k.clone();
                    self.bytes -= self.exact.remove(&k).map_or(0, |e| e.bytes);
                }
                (None, Some((s, _))) => {
                    let s = s.clone();
                    self.bytes -= self.samples.remove(&s).map_or(0, |e| e.bytes);
                }
                (None, None) => break,
            }
            evicted += 1;
        }
        evicted
    }
}

/// Size-bounded, shard-locked cross-query cache (see module docs).
pub struct SemanticCache {
    shards: Vec<RecoveringMutex<Shard>>,
    /// Byte budget per shard (total budget / [`N_SHARDS`]).
    shard_budget: usize,
    capacity_bytes: usize,
    /// Logical clock driving LRU ordering.
    tick: AtomicU64,
    exact_hits: AtomicU64,
    plan_hits: AtomicU64,
    warm_hits: AtomicU64,
    replayed_rows: AtomicU64,
    misses: AtomicU64,
    admissions: AtomicU64,
    evictions: AtomicU64,
    poison_recoveries: AtomicU64,
    exact_invalidations: AtomicU64,
    snapshot_repairs: AtomicU64,
    repair_rows_read: AtomicU64,
    stale_serves: AtomicU64,
}

impl std::fmt::Debug for SemanticCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SemanticCache")
            .field("capacity_bytes", &self.capacity_bytes)
            .field("stats", &self.stats())
            .finish()
    }
}

impl SemanticCache {
    /// Create a cache with a total byte budget.
    pub fn new(capacity_bytes: usize) -> Self {
        SemanticCache {
            shards: (0..N_SHARDS).map(|_| RecoveringMutex::new(Shard::default())).collect(),
            shard_budget: (capacity_bytes / N_SHARDS).max(ENTRY_OVERHEAD),
            capacity_bytes,
            tick: AtomicU64::new(0),
            exact_hits: AtomicU64::new(0),
            plan_hits: AtomicU64::new(0),
            warm_hits: AtomicU64::new(0),
            replayed_rows: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            admissions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            poison_recoveries: AtomicU64::new(0),
            exact_invalidations: AtomicU64::new(0),
            snapshot_repairs: AtomicU64::new(0),
            repair_rows_read: AtomicU64::new(0),
            stale_serves: AtomicU64::new(0),
        }
    }

    /// Create a cache budgeted in mebibytes (the CLI's `--cache-mb`).
    pub fn with_capacity_mb(mb: usize) -> Self {
        SemanticCache::new(mb * 1024 * 1024)
    }

    /// Total byte budget.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    fn shard_of<K: Hash>(&self, key: &K) -> &RecoveringMutex<Shard> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % N_SHARDS]
    }

    /// Lock a shard, rebuilding it empty first if its previous holder
    /// died mid-update. A cache may always forget, so dropping the torn
    /// shard's entries restores consistency; the rebuild is surfaced via
    /// [`CacheStats::poison_recoveries`].
    fn lock_shard<'a>(
        &'a self,
        shard: &'a RecoveringMutex<Shard>,
    ) -> std::sync::MutexGuard<'a, Shard> {
        shard.lock_recovering(|s| {
            *s = Shard::default();
            self.poison_recoveries.fetch_add(1, Ordering::Relaxed);
        })
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Look up the exact result of a canonically identical earlier query,
    /// checked against the caller's pinned table version. A version-stale
    /// entry is returned as [`ExactLookup::Stale`] and **left in place** —
    /// the §12 ladder may serve it marked `stale` when the fresh path is
    /// unavailable; the normal path calls
    /// [`SemanticCache::invalidate_exact`] instead.
    pub fn lookup_exact(&self, key: &QueryKey, version: u64) -> ExactLookup {
        let mut shard = self.lock_shard(self.shard_of(key));
        let tick = self.next_tick();
        let Some(entry) = shard.exact.get_mut(key) else {
            return ExactLookup::Miss;
        };
        entry.last_used = tick;
        let data = entry.data.clone();
        let fresh = entry.version == version;
        drop(shard);
        if fresh {
            self.exact_hits.fetch_add(1, Ordering::Relaxed);
            ExactLookup::Fresh(data)
        } else {
            ExactLookup::Stale(data)
        }
    }

    /// Drop a version-stale exact entry (the table moved past it and the
    /// caller is replanning fresh).
    pub fn invalidate_exact(&self, key: &QueryKey) {
        let mut shard = self.lock_shard(self.shard_of(key));
        if let Some(old) = shard.exact.remove(key) {
            shard.bytes -= old.bytes;
            drop(shard);
            self.exact_invalidations.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The plan kept beside `data`, if one was scored under what
    /// `fingerprint` names ([`PlanRecord::fingerprint`]); counted as a plan
    /// hit.
    pub fn lookup_plan<'d>(
        &self,
        data: &'d ExactAggregates,
        fingerprint: u64,
    ) -> Option<&'d PlanRecord> {
        let plan = data.plan.get().filter(|p| p.fingerprint == fingerprint)?;
        self.plan_hits.fetch_add(1, Ordering::Relaxed);
        Some(plan)
    }

    /// Keep `plan` beside the aggregates it was scored on, if `data` is
    /// still `key`'s entry — a plan lives and dies with its entry. An empty
    /// slot is set in place; a slot filled under another fingerprint is
    /// overwritten by swapping in a copy of the aggregates that carries
    /// `plan` (values already handed out keep the plan they had).
    pub fn admit_plan(&self, key: &QueryKey, data: &Arc<ExactAggregates>, plan: PlanRecord) {
        let mut shard = self.lock_shard(self.shard_of(key));
        let Some(entry) = shard.exact.get_mut(key).filter(|e| Arc::ptr_eq(&e.data, data)) else {
            return;
        };
        if let Err(plan) = data.plan.set(plan) {
            let (counts, sums) = (data.counts.clone(), data.sums.clone());
            entry.data = Arc::new(ExactAggregates { counts, sums, plan: OnceLock::from(plan) });
        }
    }

    /// Record a snapshot repair and the suffix rows it added.
    pub fn note_repair(&self, rows_read: u64) {
        self.snapshot_repairs.fetch_add(1, Ordering::Relaxed);
        self.repair_rows_read.fetch_add(rows_read, Ordering::Relaxed);
    }

    /// Record the rows one warm start replayed.
    pub fn note_replay(&self, rows: u64) {
        self.replayed_rows.fetch_add(rows, Ordering::Relaxed);
    }

    /// Record that a version-stale exact result was served (marked) under
    /// degradation.
    pub fn note_stale_serve(&self) {
        self.stale_serves.fetch_add(1, Ordering::Relaxed);
    }

    /// Look up a warm-start donor for a query over `scope`: a snapshot is
    /// compatible only if it was drawn under the same scan `seed` (so the
    /// resumed scan continues the same two-level permutation). The donor's
    /// worker count is irrelevant — morsel-pool progress describes the
    /// consumed set itself, so any thread layout can resume it.
    pub fn lookup_snapshot(&self, scope: &ScopeKey, seed: u64) -> Option<Arc<SampleSnapshot>> {
        let mut shard = self.lock_shard(self.shard_of(scope));
        let tick = self.next_tick();
        let entry = shard.samples.get_mut(scope)?;
        if entry.snap.seed != seed {
            return None;
        }
        entry.last_used = tick;
        let snap = entry.snap.clone();
        drop(shard);
        self.warm_hits.fetch_add(1, Ordering::Relaxed);
        Some(snap)
    }

    /// Record that a query found neither an exact result nor a warm-start
    /// donor (called by the engines so hit rates are well-defined).
    pub fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Admit the exact per-aggregate counts and sums of a completed query,
    /// stamped with the table version they were computed against. Returns
    /// the admitted entry, whose plan slot a caller that scores on it can
    /// fill ([`SemanticCache::admit_plan`]).
    pub fn admit_exact(
        &self,
        key: &QueryKey,
        version: u64,
        counts: Vec<u64>,
        sums: Vec<f64>,
    ) -> Arc<ExactAggregates> {
        let data = Arc::new(ExactAggregates::new(counts, sums));
        // The version stamp is counted toward the budget like any other
        // entry metadata.
        let bytes = data.approx_bytes() + std::mem::size_of::<u64>();
        let tick = self.next_tick();
        let mut shard = self.lock_shard(self.shard_of(key));
        let entry = ExactEntry { data: data.clone(), version, bytes, last_used: tick };
        if let Some(old) = shard.exact.insert(key.clone(), entry) {
            shard.bytes -= old.bytes;
        }
        shard.bytes += bytes;
        let evicted = shard.enforce_budget(self.shard_budget);
        drop(shard);
        self.admissions.fetch_add(1, Ordering::Relaxed);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        data
    }

    /// Admit a sample snapshot for a query scope. An existing snapshot for
    /// the scope is replaced only by one covering at least as many rows
    /// (deeper prefixes make strictly better donors) or drawn against a
    /// newer table version (repaired snapshots supersede their donor even
    /// when the proportional suffix read rounded to zero rows).
    pub fn admit_snapshot(&self, scope: &ScopeKey, snap: SampleSnapshot) {
        let bytes = snap.approx_bytes();
        if bytes > self.shard_budget {
            return;
        }
        let tick = self.next_tick();
        let mut shard = self.lock_shard(self.shard_of(scope));
        if let Some(existing) = shard.samples.get(scope) {
            if existing.snap.seed == snap.seed
                && existing.snap.version >= snap.version
                && existing.snap.nr_read >= snap.nr_read
            {
                return;
            }
        }
        let entry = SampleEntry { snap: Arc::new(snap), bytes, last_used: tick };
        if let Some(old) = shard.samples.insert(scope.clone(), entry) {
            shard.bytes -= old.bytes;
        }
        shard.bytes += bytes;
        let evicted = shard.enforce_budget(self.shard_budget);
        drop(shard);
        self.admissions.fetch_add(1, Ordering::Relaxed);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
    }

    /// Current counter values.
    pub fn stats(&self) -> CacheStats {
        let bytes_used: usize = self.shards.iter().map(|s| self.lock_shard(s).bytes).sum();
        CacheStats {
            exact_hits: self.exact_hits.load(Ordering::Relaxed),
            plan_hits: self.plan_hits.load(Ordering::Relaxed),
            warm_hits: self.warm_hits.load(Ordering::Relaxed),
            replayed_rows: self.replayed_rows.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            admissions: self.admissions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes_used: bytes_used as u64,
            poison_recoveries: self.poison_recoveries.load(Ordering::Relaxed),
            exact_invalidations: self.exact_invalidations.load(Ordering::Relaxed),
            snapshot_repairs: self.snapshot_repairs.load(Ordering::Relaxed),
            repair_rows_read: self.repair_rows_read.load(Ordering::Relaxed),
            stale_serves: self.stale_serves.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voxolap_data::dimension::{LevelId, MemberId};
    use voxolap_data::schema::MeasureId;
    use voxolap_data::DimId;

    fn key(n: u8) -> QueryKey {
        QueryKey::canonical(
            AggFct::Avg,
            MeasureId(0),
            &[(DimId(n), LevelId(1))],
            &[(DimId(0), MemberId(n as u32 + 1))],
        )
    }

    fn exact_payload(len: usize) -> (Vec<u64>, Vec<f64>) {
        ((0..len as u64).collect(), (0..len).map(|i| i as f64).collect())
    }

    /// Collapse a version-checked lookup to its fresh payload (tests that
    /// only care about hit-or-miss at one version).
    fn fresh(l: ExactLookup) -> Option<Arc<ExactAggregates>> {
        match l {
            ExactLookup::Fresh(d) => Some(d),
            _ => None,
        }
    }

    #[test]
    fn exact_roundtrip_and_counters() {
        let cache = SemanticCache::with_capacity_mb(1);
        let k = key(0);
        assert!(fresh(cache.lookup_exact(&k, 0)).is_none());
        let (counts, sums) = exact_payload(4);
        cache.admit_exact(&k, 0, counts.clone(), sums.clone());
        let hit = fresh(cache.lookup_exact(&k, 0)).expect("admitted entry is found");
        assert_eq!(hit.counts, counts);
        assert_eq!(hit.sums, sums);
        let r = hit.to_result(AggFct::Sum);
        assert_eq!(r.sum(2), 2.0);
        cache.record_miss();
        let stats = cache.stats();
        assert_eq!(stats.exact_hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.admissions, 1);
        assert!(stats.bytes_used > 0);
    }

    #[test]
    fn version_stale_exact_is_reported_not_served_fresh() {
        let cache = SemanticCache::with_capacity_mb(1);
        let k = key(0);
        let (counts, sums) = exact_payload(4);
        cache.admit_exact(&k, 3, counts, sums);
        assert!(fresh(cache.lookup_exact(&k, 3)).is_some(), "matching version hits");
        // The table moved to version 4: the entry surfaces as Stale and
        // stays in place for a possible marked stale-serve.
        assert!(matches!(cache.lookup_exact(&k, 4), ExactLookup::Stale(_)));
        assert!(matches!(cache.lookup_exact(&k, 4), ExactLookup::Stale(_)), "left in place");
        // The fresh path invalidates instead.
        cache.invalidate_exact(&k);
        assert!(matches!(cache.lookup_exact(&k, 4), ExactLookup::Miss));
        let stats = cache.stats();
        assert_eq!(stats.exact_invalidations, 1);
        assert_eq!(stats.exact_hits, 1, "stale lookups are not hits");
        // Idempotent on a missing key.
        cache.invalidate_exact(&k);
        assert_eq!(cache.stats().exact_invalidations, 1);
    }

    fn plan(fingerprint: u64) -> PlanRecord {
        PlanRecord { path: vec![3, 17, 4], tree_nodes: 30_210, truncated: false, fingerprint }
    }

    #[test]
    fn a_plan_lives_and_dies_with_its_entry() {
        let cache = SemanticCache::with_capacity_mb(1);
        let k = key(0);
        let (counts, sums) = exact_payload(4);
        cache.admit_exact(&k, 0, counts.clone(), sums.clone());
        let bytes = cache.stats().bytes_used;
        let first = fresh(cache.lookup_exact(&k, 0)).unwrap();
        assert_eq!(cache.lookup_plan(&first, 1), None, "a new entry holds no plan");
        cache.admit_plan(&k, &first, plan(1));
        assert_eq!(cache.lookup_plan(&first, 1), Some(&plan(1)));
        assert_eq!(cache.lookup_plan(&first, 2), None, "another configuration's plan is no hit");
        assert_eq!(cache.stats().plan_hits, 1);
        assert_eq!(cache.stats().bytes_used, bytes, "the slot was charged at admission");

        // A plan under another configuration takes the slot over for later
        // lookups; the value already handed out keeps what it had.
        cache.admit_plan(&k, &first, plan(2));
        let second = fresh(cache.lookup_exact(&k, 0)).unwrap();
        assert_eq!(cache.lookup_plan(&second, 2), Some(&plan(2)));
        assert_eq!(cache.lookup_plan(&first, 1), Some(&plan(1)));
        assert_eq!((&second.counts, &second.sums), (&counts, &sums));

        // Re-admitting the key drops the plan with the entry, and a plan
        // scored on the old aggregates is not attached to the new ones.
        cache.admit_exact(&k, 1, counts, sums);
        let third = fresh(cache.lookup_exact(&k, 1)).unwrap();
        cache.admit_plan(&k, &second, plan(3));
        assert_eq!(cache.lookup_plan(&third, 2), None);
        assert_eq!(cache.lookup_plan(&third, 3), None);
        assert_eq!(cache.stats().bytes_used, bytes);
    }

    #[test]
    fn repair_and_stale_serve_counters_accumulate() {
        let cache = SemanticCache::with_capacity_mb(1);
        cache.note_repair(120);
        cache.note_repair(30);
        cache.note_stale_serve();
        let stats = cache.stats();
        assert_eq!(stats.snapshot_repairs, 2);
        assert_eq!(stats.repair_rows_read, 150);
        assert_eq!(stats.stale_serves, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        // Budget fits two exact entries per shard; with a deterministic
        // single-key-shard workload the third admission must evict the
        // least recently *used* entry, not the oldest inserted.
        let (counts, sums) = exact_payload(64);
        let probe = ExactAggregates::new(counts.clone(), sums.clone());
        // Admitted entries carry an extra version stamp.
        let entry_bytes = probe.approx_bytes() + std::mem::size_of::<u64>();
        let cache = SemanticCache::new(entry_bytes * 2 * N_SHARDS + N_SHARDS);
        // Find three keys hashing to the same shard so the budget math is
        // exercised within one lock.
        let mut same_shard = Vec::new();
        let target = {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            key(0).hash(&mut h);
            (h.finish() as usize) % N_SHARDS
        };
        for n in 0..=u8::MAX {
            let k = key(n);
            let mut h = std::collections::hash_map::DefaultHasher::new();
            k.hash(&mut h);
            if (h.finish() as usize) % N_SHARDS == target {
                same_shard.push(k);
                if same_shard.len() == 3 {
                    break;
                }
            }
        }
        let [a, b, c] = <[QueryKey; 3]>::try_from(same_shard).expect("3 colliding keys");
        cache.admit_exact(&a, 0, counts.clone(), sums.clone());
        cache.admit_exact(&b, 0, counts.clone(), sums.clone());
        // Touch `a` so `b` becomes the least recently used.
        assert!(fresh(cache.lookup_exact(&a, 0)).is_some());
        cache.admit_exact(&c, 0, counts, sums);
        assert!(fresh(cache.lookup_exact(&a, 0)).is_some(), "recently used entry survives");
        assert!(fresh(cache.lookup_exact(&b, 0)).is_none(), "LRU entry evicted");
        assert!(fresh(cache.lookup_exact(&c, 0)).is_some(), "new entry admitted");
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn budget_enforcement_still_evicts_with_version_metadata() {
        // The version/table-row stamps added for live ingest are counted
        // toward entry sizes; a cache sized for roughly two snapshots must
        // keep evicting (and stay within budget) as more are admitted.
        let probe = SampleSnapshot {
            seed: 1,
            progress: vec![64; 16],
            nr_read: 1_024,
            version: 9,
            table_rows: 10_000,
        };
        let entry_bytes = probe.approx_bytes();
        let cache = SemanticCache::new(entry_bytes * 2 * N_SHARDS);
        for n in 0..32u8 {
            let mut snap = probe.clone();
            snap.seed = n as u64;
            cache.admit_snapshot(&key(n).scope(), snap);
        }
        let stats = cache.stats();
        assert!(stats.evictions > 0, "budget enforcement must evict");
        assert!(
            stats.bytes_used <= cache.capacity_bytes() as u64,
            "{} bytes exceed the {} budget",
            stats.bytes_used,
            cache.capacity_bytes()
        );
    }

    #[test]
    fn paper_scale_snapshot_is_under_a_kibibyte() {
        // A full scan of 5.3M rows: 81 chunk watermarks and four stamps.
        let progress =
            vec![voxolap_data::CHUNK_ROWS as u32; 5_300_000 / voxolap_data::CHUNK_ROWS + 1];
        assert_eq!(progress.len(), 81);
        let snap = SampleSnapshot {
            seed: 42,
            progress,
            nr_read: 5_300_000,
            version: 0,
            table_rows: 5_300_000,
        };
        assert!(snap.approx_bytes() < 1024, "{} bytes", snap.approx_bytes());
    }

    #[test]
    fn snapshot_compatibility_requires_seed() {
        let cache = SemanticCache::with_capacity_mb(1);
        let scope = key(0).scope();
        let snap = SampleSnapshot {
            seed: 42,
            progress: vec![100],
            nr_read: 100,
            version: 0,
            table_rows: 100,
        };
        cache.admit_snapshot(&scope, snap);
        assert!(cache.lookup_snapshot(&scope, 42).is_some());
        assert!(cache.lookup_snapshot(&scope, 43).is_none(), "seed mismatch");
        assert!(cache.lookup_snapshot(&key(1).scope(), 42).is_none(), "scope mismatch");
        assert_eq!(cache.stats().warm_hits, 1);
    }

    #[test]
    fn torn_shard_is_rebuilt_empty_and_counted() {
        let cache = SemanticCache::with_capacity_mb(1);
        let k = key(0);
        let (counts, sums) = exact_payload(4);
        cache.admit_exact(&k, 0, counts, sums);
        assert!(fresh(cache.lookup_exact(&k, 0)).is_some());
        // Simulate a holder dying mid-update on that entry's shard: the
        // next locker rebuilds the shard empty instead of panicking.
        cache.shard_of(&k).mark_torn();
        assert!(fresh(cache.lookup_exact(&k, 0)).is_none(), "torn shard forgets its entries");
        let stats = cache.stats();
        assert_eq!(stats.poison_recoveries, 1);
        assert_eq!(stats.bytes_used, 0, "rebuilt shard holds no bytes");
        // The cache keeps working after recovery.
        let (counts, sums) = exact_payload(4);
        cache.admit_exact(&k, 0, counts, sums);
        assert!(fresh(cache.lookup_exact(&k, 0)).is_some());
    }

    #[test]
    fn deeper_snapshot_replaces_shallower_one() {
        let cache = SemanticCache::with_capacity_mb(1);
        let scope = key(0).scope();
        let make = |nr_read: u64| SampleSnapshot {
            seed: 42,
            progress: vec![nr_read as u32],
            nr_read,
            version: 0,
            table_rows: 1_000,
        };
        cache.admit_snapshot(&scope, make(200));
        cache.admit_snapshot(&scope, make(100));
        assert_eq!(cache.lookup_snapshot(&scope, 42).unwrap().nr_read, 200);
        cache.admit_snapshot(&scope, make(300));
        assert_eq!(cache.lookup_snapshot(&scope, 42).unwrap().nr_read, 300);
    }

    #[test]
    fn newer_version_snapshot_replaces_equal_read_donor() {
        // A repaired snapshot whose proportional suffix read rounded to
        // zero has the same nr_read as its donor but a newer version — it
        // must still replace the donor, or every warm start would re-repair.
        let cache = SemanticCache::with_capacity_mb(1);
        let scope = key(0).scope();
        let make = |version: u64, table_rows: u64| SampleSnapshot {
            seed: 42,
            progress: vec![50],
            nr_read: 50,
            version,
            table_rows,
        };
        cache.admit_snapshot(&scope, make(0, 1_000));
        cache.admit_snapshot(&scope, make(1, 1_001));
        let got = cache.lookup_snapshot(&scope, 42).unwrap();
        assert_eq!((got.version, got.table_rows), (1, 1_001));
        // But an older version never displaces a newer one.
        cache.admit_snapshot(&scope, make(0, 1_000));
        assert_eq!(cache.lookup_snapshot(&scope, 42).unwrap().version, 1);
    }
}
