//! Cross-query semantic-cache replay: a seeded workload of repeated,
//! scope-overlapping, and fresh queries against one [`Holistic`] engine
//! sharing a [`SemanticCache`], rendered as markdown and as the
//! machine-readable `BENCH_cache.json` record.
//!
//! Two measurements:
//!
//! * **Replay** — `n_queries` queries drawn from a small pool with
//!   configurable repeat/overlap ratios; per-query planning latency and
//!   rows read are bucketed by how the cache served the query (cold,
//!   exact hit, warm-start hit), as classified from the cache-counter
//!   deltas around each call.
//! * **Warm start** — rows needed to push the deterministic count
//!   estimator (`e_C = nrRows * seen(a) / nrRead`, paper Algorithm 3)
//!   below a relative-error threshold, cold versus warm-started from a
//!   donor snapshot with the same scope but a different group-by.
//!
//! [`Holistic`]: voxolap_core::holistic::Holistic
//! [`SemanticCache`]: voxolap_engine::semantic::SemanticCache

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use voxolap_core::approach::Vocalizer;
use voxolap_core::holistic::{Holistic, HolisticConfig};
use voxolap_core::sampler::ShardWorker;
use voxolap_core::voice::InstantVoice;
use voxolap_data::dimension::LevelId;
use voxolap_data::{DimId, Table};
use voxolap_engine::exact::{evaluate, ExactResult};
use voxolap_engine::query::{AggFct, Query};
use voxolap_engine::semantic::{CacheStats, SemanticCache};
use voxolap_json::Value;

use crate::{flights_table, markdown_table};

/// How a query was served, judged from the cache-counter deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    Cold,
    ExactHit,
    WarmHit,
}

impl Served {
    fn label(self) -> &'static str {
        match self {
            Served::Cold => "cold",
            Served::ExactHit => "exact_hit",
            Served::WarmHit => "warm_hit",
        }
    }
}

/// One replayed query.
#[derive(Debug, Clone)]
pub struct ReplayPoint {
    pub served: Served,
    pub planning_ms: f64,
    pub rows_read: u64,
}

/// Aggregated statistics of one `Served` class.
#[derive(Debug, Clone, Copy)]
pub struct ClassStats {
    pub count: usize,
    pub mean_ms: f64,
    pub p50_ms: f64,
    pub mean_rows: f64,
}

impl ClassStats {
    fn of(points: &[&ReplayPoint]) -> ClassStats {
        if points.is_empty() {
            return ClassStats { count: 0, mean_ms: 0.0, p50_ms: 0.0, mean_rows: 0.0 };
        }
        let mut ms: Vec<f64> = points.iter().map(|p| p.planning_ms).collect();
        ms.sort_by(|a, b| a.total_cmp(b));
        ClassStats {
            count: points.len(),
            mean_ms: ms.iter().sum::<f64>() / ms.len() as f64,
            p50_ms: ms[ms.len() / 2],
            mean_rows: points.iter().map(|p| p.rows_read as f64).sum::<f64>() / points.len() as f64,
        }
    }
}

/// The warm-start rows-to-accuracy measurement.
#[derive(Debug, Clone, Copy)]
pub struct WarmStartReport {
    pub donor_rows: u64,
    pub threshold: f64,
    pub cold_rows: u64,
    pub warm_fresh_rows: u64,
}

/// Full result of one replay run.
#[derive(Debug, Clone)]
pub struct CacheReplay {
    pub points: Vec<ReplayPoint>,
    pub final_stats: CacheStats,
    pub warm_start: WarmStartReport,
    /// In-memory size of the generated dataset (for the artifact header).
    pub dataset_bytes: usize,
}

impl CacheReplay {
    fn class(&self, served: Served) -> ClassStats {
        let points: Vec<&ReplayPoint> = self.points.iter().filter(|p| p.served == served).collect();
        ClassStats::of(&points)
    }

    /// Mean cold planning latency divided by mean exact-hit latency.
    pub fn exact_hit_speedup(&self) -> f64 {
        let cold = self.class(Served::Cold);
        let hit = self.class(Served::ExactHit);
        if hit.count == 0 || hit.mean_ms <= 0.0 {
            return 0.0;
        }
        cold.mean_ms / hit.mean_ms
    }

    /// Fraction of queries served from the cache (either layer).
    pub fn hit_rate(&self) -> f64 {
        let hits = self.points.iter().filter(|p| p.served != Served::Cold).count();
        hits as f64 / self.points.len().max(1) as f64
    }
}

/// The query pool: groups of same-scope queries (identical filters, so
/// snapshots transfer within a group) across three scopes.
fn query_pool(table: &Table) -> Vec<Query> {
    let schema = table.schema();
    let ne = schema.dimension(DimId(0)).member_by_phrase("the North East").expect("NE exists");
    let winter = schema.dimension(DimId(1)).member_by_phrase("Winter").expect("Winter exists");
    let b = |filter: Option<(DimId, voxolap_data::MemberId)>, dims: &[(u8, u8)]| {
        let mut q = Query::builder(AggFct::Avg);
        if let Some((d, m)) = filter {
            q = q.filter(d, m);
        }
        for &(d, l) in dims {
            q = q.group_by(DimId(d), LevelId(l));
        }
        q.build(schema).expect("pool query is valid")
    };
    vec![
        // Scope 1: no filters.
        b(None, &[(0, 1)]),
        b(None, &[(1, 1)]),
        b(None, &[(2, 1)]),
        b(None, &[(0, 1), (1, 1)]),
        // Scope 2: the North East.
        b(Some((DimId(0), ne)), &[(1, 1)]),
        b(Some((DimId(0), ne)), &[(2, 1)]),
        b(Some((DimId(0), ne)), &[(1, 1), (2, 1)]),
        // Scope 3: Winter.
        b(Some((DimId(1), winter)), &[(0, 1)]),
        b(Some((DimId(1), winter)), &[(2, 1)]),
        b(Some((DimId(1), winter)), &[(0, 1), (2, 1)]),
    ]
}

/// Engine configuration for the replay. A cache hit skips sampling but
/// still scores the candidate tree exhaustively, so the tree is kept
/// small while the sampling floor stays high — the shape of a live
/// deployment, where row ingestion dominates planning.
fn replay_config(seed: u64) -> HolisticConfig {
    HolisticConfig {
        seed,
        min_samples_per_sentence: 24_000,
        max_tree_nodes: 2_000,
        resample_size: 200,
        ..HolisticConfig::default()
    }
}

/// Mean relative error of the deterministic per-aggregate count estimator
/// against the exact counts (aggregates with empty true scopes skipped).
fn count_error(worker: &ShardWorker<'_>, exact: &ExactResult) -> f64 {
    let cache = worker.cache();
    let nr_read = cache.nr_read();
    if nr_read == 0 {
        return f64::INFINITY;
    }
    let total = cache.nr_rows_total() as f64;
    let mut err = 0.0;
    let mut n = 0usize;
    for a in 0..exact.len() as u32 {
        let truth = exact.count(a) as f64;
        if truth == 0.0 {
            continue;
        }
        let est = total * cache.seen(a) as f64 / nr_read as f64;
        err += (est - truth).abs() / truth;
        n += 1;
    }
    if n == 0 {
        f64::INFINITY
    } else {
        err / n as f64
    }
}

/// Fresh rows a planning worker needs before the count estimator's error
/// drops below `threshold` (chunked ingestion; stops at scan exhaustion).
fn rows_to_threshold(worker: &mut ShardWorker<'_>, exact: &ExactResult, threshold: f64) -> u64 {
    const CHUNK: usize = 128;
    loop {
        if count_error(worker, exact) < threshold {
            return worker.rows_read();
        }
        if worker.ingest_rows(CHUNK) == 0 {
            return worker.rows_read();
        }
    }
}

/// Measure rows-to-accuracy cold versus warm-started: the donor streams
/// `donor_rows` rows of the shared scope grouped by region, the target
/// asks region × season. Both run the same seed, so the donor prefix is
/// exactly the first `donor_rows` rows the cold target would read.
pub fn warm_start_report(table: &Table, seed: u64, donor_rows: usize) -> WarmStartReport {
    let schema = table.schema();
    let donor_q = Query::builder(AggFct::Avg)
        .group_by(DimId(0), LevelId(1))
        .build(schema)
        .expect("donor query is valid");
    let target_q = Query::builder(AggFct::Avg)
        .group_by(DimId(0), LevelId(1))
        .group_by(DimId(1), LevelId(1))
        .build(schema)
        .expect("target query is valid");
    let exact = evaluate(&target_q, table);
    let threshold = 0.05;

    let cfg = HolisticConfig { seed, ..HolisticConfig::default() };
    let mut donor = ShardWorker::solo(table, &donor_q, &cfg);
    donor.enable_row_log(donor_rows);
    donor.ingest_rows(donor_rows);
    let snapshot = donor.take_snapshot().expect("donor snapshot fits its log");

    let mut cold = ShardWorker::solo(table, &target_q, &cfg);
    let cold_rows = rows_to_threshold(&mut cold, &exact, threshold);

    let mut warm = ShardWorker::solo(table, &target_q, &cfg);
    warm.warm_start(&snapshot);
    let warm_fresh_rows = rows_to_threshold(&mut warm, &exact, threshold);

    WarmStartReport { donor_rows: snapshot.nr_read, threshold, cold_rows, warm_fresh_rows }
}

/// Replay a seeded workload of `n_queries` queries with the given repeat
/// and scope-overlap percentages against one cache-sharing engine.
pub fn measure(
    rows: usize,
    n_queries: usize,
    repeat_pct: usize,
    overlap_pct: usize,
    cache_mb: usize,
    seed: u64,
) -> CacheReplay {
    let table = flights_table(rows);
    let pool = query_pool(&table);
    let cache = Arc::new(SemanticCache::with_capacity_mb(cache_mb.max(1)));
    let engine = Holistic::new(replay_config(seed)).with_cache(cache.clone());

    let mut rng = StdRng::seed_from_u64(seed ^ 0xc0ff_ee00_c0ff_ee00);
    let mut history: Vec<usize> = Vec::new();
    let mut next_fresh = 0usize;
    let mut points = Vec::with_capacity(n_queries);
    for _ in 0..n_queries {
        let roll = rng.gen_range(0..100usize);
        let idx = if roll < repeat_pct && !history.is_empty() {
            // Exact repeat of an earlier query.
            history[rng.gen_range(0..history.len())]
        } else if roll < repeat_pct + overlap_pct && !history.is_empty() {
            // Same pool (scopes repeat), different index than the last
            // query — lands on a scope sibling or a fresh scope.
            let prev = *history.last().expect("nonempty");
            (prev + 1 + rng.gen_range(0..pool.len() - 1)) % pool.len()
        } else {
            let idx = next_fresh % pool.len();
            next_fresh += 1;
            idx
        };
        history.push(idx);

        let before = cache.stats();
        let mut voice = InstantVoice::default();
        let outcome = engine.vocalize(&table, &pool[idx], &mut voice);
        let after = cache.stats();
        let served = if after.exact_hits > before.exact_hits {
            Served::ExactHit
        } else if after.warm_hits > before.warm_hits {
            Served::WarmHit
        } else {
            Served::Cold
        };
        points.push(ReplayPoint {
            served,
            planning_ms: outcome.stats.planning_time.as_secs_f64() * 1e3,
            rows_read: outcome.stats.rows_read,
        });
    }

    let warm_start = warm_start_report(&table, seed, 2_000.min(rows / 8));
    CacheReplay {
        points,
        final_stats: cache.stats(),
        warm_start,
        dataset_bytes: table.approx_bytes(),
    }
}

/// Render the replay as the `BENCH_cache.json` record.
pub fn to_json(
    rows: usize,
    repeat_pct: usize,
    overlap_pct: usize,
    cache_mb: usize,
    host: crate::HostInfo,
    replay: &CacheReplay,
) -> String {
    let class_json = |s: ClassStats| {
        Value::obj([
            ("count", s.count.into()),
            ("mean_ms", s.mean_ms.into()),
            ("p50_ms", s.p50_ms.into()),
            ("mean_rows_read", s.mean_rows.into()),
        ])
    };
    let ws = replay.warm_start;
    Value::obj([
        ("bench", "cache_replay".into()),
        ("dataset", "flights".into()),
        ("rows", (rows as u64).into()),
        ("queries", replay.points.len().into()),
        ("repeat_pct", repeat_pct.into()),
        ("overlap_pct", overlap_pct.into()),
        ("cache_mb", cache_mb.into()),
        ("host_cores", (host.cores as u64).into()),
        ("host_ram_bytes", host.ram_bytes.into()),
        ("dataset_bytes", (replay.dataset_bytes as u64).into()),
        ("cold", class_json(replay.class(Served::Cold))),
        ("exact_hit", class_json(replay.class(Served::ExactHit))),
        ("warm_hit", class_json(replay.class(Served::WarmHit))),
        ("exact_hit_speedup_vs_cold", replay.exact_hit_speedup().into()),
        ("hit_rate", replay.hit_rate().into()),
        (
            "cache_stats",
            Value::obj([
                ("exact_hits", replay.final_stats.exact_hits.into()),
                ("warm_hits", replay.final_stats.warm_hits.into()),
                ("misses", replay.final_stats.misses.into()),
                ("admissions", replay.final_stats.admissions.into()),
                ("evictions", replay.final_stats.evictions.into()),
                ("bytes_used", replay.final_stats.bytes_used.into()),
            ]),
        ),
        (
            "warm_start",
            Value::obj([
                ("donor_rows", ws.donor_rows.into()),
                ("count_error_threshold", ws.threshold.into()),
                ("cold_rows_to_threshold", ws.cold_rows.into()),
                ("warm_fresh_rows_to_threshold", ws.warm_fresh_rows.into()),
            ]),
        ),
    ])
    .to_string()
}

/// Render the replay as markdown.
pub fn run(rows: usize, replay: &CacheReplay) -> String {
    let md_rows: Vec<Vec<String>> = [Served::Cold, Served::ExactHit, Served::WarmHit]
        .iter()
        .map(|&s| {
            let c = replay.class(s);
            vec![
                s.label().to_string(),
                c.count.to_string(),
                format!("{:.2}", c.mean_ms),
                format!("{:.2}", c.p50_ms),
                format!("{:.0}", c.mean_rows),
            ]
        })
        .collect();
    let ws = replay.warm_start;
    format!(
        "### Semantic-cache replay ({rows} flights rows, {} queries)\n\n{}\n\
         exact-hit speedup vs cold: {:.1}x | hit rate: {:.0}%\n\
         warm start: {} donor rows; cold needs {} rows for count error < {:.0}%, \
         warm-started needs {} fresh rows\n",
        replay.points.len(),
        markdown_table(&["served", "count", "mean ms", "p50 ms", "mean rows"], &md_rows),
        replay.exact_hit_speedup(),
        replay.hit_rate() * 100.0,
        ws.donor_rows,
        ws.cold_rows,
        ws.threshold * 100.0,
        ws.warm_fresh_rows,
    )
}
