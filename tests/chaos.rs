//! Chaos suite: 100 seeded deadline schedules thrown at the holistic
//! engine, at one thread and as a team, and at Unmerged (DESIGN.md §12).
//!
//! A deadline is the one failure the planner meets (a worker panicking
//! ends its run; storage faults stay in the storage layer). Each seed
//! draws one: none, one already past, or one a few milliseconds into the
//! run, so some cuts land mid-plan. It vocalizes a real query under it.
//! Invariants checked for every run:
//!
//! 1. no panic escapes the engine (a passed deadline must degrade, not
//!    crash);
//! 2. exactly one answer is accounted, clean xor degraded;
//! 3. the spoken text is never empty, and a "No data" fallback on a table
//!    that *has* data is always marked degraded;
//! 4. every non-empty body still parses under the speech grammar, and the
//!    induced beliefs stay consistent with the baseline (Theorem A.1:
//!    the average of belief means equals the spoken baseline).
//!
//! The whole suite runs under a watchdog; a hang or a failing seed writes
//! the seed to `$CARGO_TARGET_TMPDIR/chaos-failure-seed.txt` so CI can
//! surface exactly which schedule to replay.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use voxolap_core::approach::Vocalizer;
use voxolap_core::holistic::{Holistic, HolisticConfig};
use voxolap_core::outcome::VocalizationOutcome;
use voxolap_core::parallel::ParallelHolistic;
use voxolap_core::unmerged::{SamplingBudget, Unmerged};
use voxolap_core::voice::InstantVoice;
use voxolap_core::CancelToken;
use voxolap_data::dimension::LevelId;
use voxolap_data::flights::FlightsConfig;
use voxolap_data::{DimId, Table};
use voxolap_engine::query::{AggFct, Query};
use voxolap_faults::Resilience;
use voxolap_speech::parse::parse_body;
use voxolap_speech::scope::CompiledSpeech;

/// Number of randomized schedules.
const SEEDS: u64 = 100;

/// Hard ceiling for the whole suite; the watchdog aborts past it so a
/// hung schedule fails CI with the offending seed on record instead of
/// idling until the job timeout.
const WATCHDOG: Duration = Duration::from_secs(300);

/// Where a hang or failure records its seed (uploaded as a CI artifact).
const FAILURE_SEED_FILE: &str = concat!(env!("CARGO_TARGET_TMPDIR"), "/chaos-failure-seed.txt");

const NO_DATA: &str = "No data matches the query scope.";

fn record_failure_seed(seed: u64, why: &str) {
    let _ = std::fs::write(FAILURE_SEED_FILE, format!("seed={seed}\nreason={why}\n"));
}

fn table() -> Table {
    FlightsConfig { rows: 4_000, seed: 42 }.generate()
}

fn query(table: &Table, two_dims: bool) -> Query {
    let mut b = Query::builder(AggFct::Avg).group_by(DimId(0), LevelId(1));
    if two_dims {
        b = b.group_by(DimId(1), LevelId(1));
    }
    b.build(table.schema()).unwrap()
}

/// Derive one schedule from `seed`: the cancel token that carries its
/// deadline, drawn when the run is about to start.
fn chaos_schedule(seed: u64) -> CancelToken {
    let mut gen = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    // A quarter of the schedules run out of time before planning starts:
    // the anytime answer (or a stale exact serve) must carry them. A
    // quarter more run out a few milliseconds in, mid-plan.
    match gen.gen_range(0..4) {
        0 => CancelToken::with_deadline(Instant::now()),
        1 => {
            CancelToken::with_deadline(Instant::now() + Duration::from_millis(gen.gen_range(1..=5)))
        }
        _ => CancelToken::never(),
    }
}

fn engine_for(seed: u64, res: Arc<Resilience>) -> Box<dyn Vocalizer> {
    let config = HolisticConfig {
        min_samples_per_sentence: 200,
        max_tree_nodes: 30_000,
        seed,
        ..HolisticConfig::default()
    };
    // Alternate one-thread engines and two-thread teams so both the
    // deterministic loop and concurrent members on one lock-free tree face
    // every schedule shape.
    if seed.is_multiple_of(2) {
        Box::new(Holistic::new(config).with_resilience(res))
    } else {
        Box::new(ParallelHolistic::new(config).with_threads(2).with_resilience(res))
    }
}

/// Check the per-run invariants; returns an error description on the
/// first violation instead of panicking so the caller can attach the seed.
fn check_invariants(
    table: &Table,
    q: &Query,
    res: &Resilience,
    outcome: &VocalizationOutcome,
) -> Result<(), String> {
    let (clean, degraded) = (res.clean_answers(), res.degraded_answers());
    if clean + degraded != 1 {
        return Err(format!(
            "run accounted {clean} clean + {degraded} degraded answers, want exactly 1"
        ));
    }
    if (degraded == 1) != outcome.stats.degraded {
        return Err(format!(
            "stats counter ({degraded} degraded) disagrees with outcome flag ({})",
            outcome.stats.degraded
        ));
    }
    let text = outcome.full_text();
    if text.is_empty() {
        return Err("empty spoken text".to_string());
    }
    let body = outcome.body_text();
    if body == NO_DATA {
        // The chaos table always has matching rows: a no-data answer can
        // only come from the degradation ladder and must say so.
        if !outcome.stats.degraded {
            return Err("no-data fallback not marked degraded".to_string());
        }
        return Ok(());
    }
    if outcome.sentences.is_empty() {
        return Err("non-degraded run delivered no body sentences".to_string());
    }
    // Grammar validity + Theorem A.1: whatever survived the cut must
    // still parse as a speech whose induced belief means average back to
    // the spoken baseline.
    let speech = parse_body(&body, table.schema(), q)
        .map_err(|e| format!("body fails the speech grammar: {e} (body: {body:?})"))?;
    let cs = CompiledSpeech::compile(&speech, q.layout(), table.schema());
    let means = cs.means_all(q.layout());
    let avg = means.iter().sum::<f64>() / means.len() as f64;
    let baseline = speech.baseline.value;
    if (avg - baseline).abs() > 1e-6 * baseline.abs().max(1.0) {
        return Err(format!("belief means average {avg} != baseline {baseline}"));
    }
    Ok(())
}

#[test]
fn hundred_seeded_fault_schedules_never_break_the_invariants() {
    let _ = std::fs::remove_file(FAILURE_SEED_FILE);
    let t = table();
    let start = Instant::now();
    let done = Arc::new(AtomicBool::new(false));
    let current_seed = Arc::new(AtomicU64::new(0));
    let watchdog = {
        let done = Arc::clone(&done);
        let current = Arc::clone(&current_seed);
        std::thread::spawn(move || {
            while !done.load(Ordering::Relaxed) {
                if start.elapsed() > WATCHDOG {
                    let seed = current.load(Ordering::Relaxed);
                    record_failure_seed(seed, "watchdog: suite hung");
                    eprintln!("chaos watchdog fired at seed {seed}; aborting");
                    std::process::abort();
                }
                std::thread::sleep(Duration::from_millis(200));
            }
        })
    };

    let mut degraded_runs = 0u64;
    for seed in 0..SEEDS {
        current_seed.store(seed, Ordering::Relaxed);
        let res = Arc::new(Resilience::default());
        let q = query(&t, seed % 3 != 0);
        let engine = engine_for(seed, Arc::clone(&res));
        let cancel = chaos_schedule(seed);
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut voice = InstantVoice::default();
            engine.stream(&t, &q, &mut voice, cancel).drain()
        }))
        .unwrap_or_else(|e| {
            record_failure_seed(seed, "panic escaped the engine");
            std::panic::resume_unwind(e);
        });
        if let Err(why) = check_invariants(&t, &q, &res, &outcome) {
            record_failure_seed(seed, &why);
            panic!("seed {seed}: {why}");
        }
        degraded_runs += u64::from(outcome.stats.degraded);
    }
    done.store(true, Ordering::Relaxed);
    watchdog.join().unwrap();

    // The schedules must actually bite: some answers degraded by their
    // deadline, and some runs that finished clean.
    assert!(degraded_runs > 0, "no schedule degraded an answer");
    assert!(degraded_runs < SEEDS, "every schedule degraded; mild ones should survive clean");
}

/// Unmerged samples on the holistic engine's team, so every schedule's
/// deadline reaches it too: the same invariants hold for its
/// whole-speech-at-once answers under an iteration budget.
#[test]
fn seeded_fault_schedules_never_break_unmerged() {
    let t = table();
    for seed in 0..SEEDS {
        let res = Arc::new(Resilience::default());
        let q = query(&t, seed % 3 != 0);
        let config = HolisticConfig { max_tree_nodes: 30_000, seed, ..HolisticConfig::default() };
        let engine = Unmerged::new(config, SamplingBudget::Iterations(400))
            .with_resilience(Arc::clone(&res));
        let cancel = chaos_schedule(seed);
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            engine.stream(&t, &q, &mut InstantVoice::default(), cancel).drain()
        }))
        .unwrap_or_else(|e| {
            record_failure_seed(seed, "panic escaped Unmerged");
            std::panic::resume_unwind(e);
        });
        if let Err(why) = check_invariants(&t, &q, &res, &outcome) {
            record_failure_seed(seed, &why);
            panic!("seed {seed}: Unmerged: {why}");
        }
    }
}

/// Deadline schedules firing while append + repair traffic flows
/// (DESIGN.md §16): every iteration fills a shared cache clean, appends a
/// batch — making all cached entries version-stale — and replans under a
/// seeded deadline. The cache must never pass a wrong-version
/// result off as fresh: a stale entry never counts as an exact hit, and
/// any stale serve — a schedule whose deadline has passed — must surface
/// on the answer as `stale: true` (and so be marked degraded). No
/// schedule may let a panic escape the append/repair path.
#[test]
fn append_chaos_never_serves_wrong_version_results_unmarked() {
    use voxolap_data::schema::MeasureId;
    use voxolap_data::{DimValue, IngestRow, LiveTable};
    use voxolap_engine::semantic::SemanticCache;

    let base = table();
    let live = LiveTable::new(base.clone());
    let echo = |start: usize, n: usize| -> Vec<IngestRow> {
        let schema = base.schema();
        (0..n)
            .map(|i| {
                let row = (start + i) % base.row_count();
                IngestRow {
                    dims: (0..schema.dimensions().len())
                        .map(|d| {
                            let id = DimId(d as u8);
                            let member = base.member_at(id, row);
                            DimValue::Phrase(schema.dimension(id).member(member).phrase.clone())
                        })
                        .collect(),
                    values: (0..schema.measures().len())
                        .map(|m| base.measure_value(MeasureId(m as u8), row))
                        .collect(),
                }
            })
            .collect()
    };

    let mut repairs_total = 0u64;
    let mut stale_total = 0u64;
    for seed in 0..40u64 {
        let cache = Arc::new(SemanticCache::with_capacity_mb(16));
        let config = HolisticConfig {
            min_samples_per_sentence: 200,
            max_tree_nodes: 30_000,
            seed,
            ..HolisticConfig::default()
        };
        let engine: Box<dyn Vocalizer> = if seed.is_multiple_of(2) {
            Box::new(Holistic::new(config).with_cache(Arc::clone(&cache)))
        } else {
            Box::new(ParallelHolistic::new(config).with_threads(2).with_cache(Arc::clone(&cache)))
        };
        let two_dims = seed % 3 != 0;
        // Deadline-free warm-up on the current revision fills the cache.
        {
            let snap = live.snapshot();
            let q = query(&snap, two_dims);
            let mut voice = InstantVoice::default();
            engine.vocalize(&snap, &q, &mut voice);
        }
        let before = cache.stats();
        live.append_rows(&echo(seed as usize * 100, 100)).expect("append");
        let snap = live.snapshot();
        let q = query(&snap, two_dims);
        let cancel = chaos_schedule(seed);
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut voice = InstantVoice::default();
            engine.stream(&snap, &q, &mut voice, cancel).drain()
        }))
        .unwrap_or_else(|e| {
            record_failure_seed(seed, "panic escaped the append/repair path");
            std::panic::resume_unwind(e);
        });
        let after = cache.stats();
        let stale_serves = after.stale_serves - before.stale_serves;
        if stale_serves > 0 && !outcome.stats.stale {
            record_failure_seed(seed, "stale serve not marked on the answer");
            panic!("seed {seed}: {stale_serves} stale serves but the answer is unmarked");
        }
        if outcome.stats.stale && !outcome.stats.degraded {
            record_failure_seed(seed, "stale answer not marked degraded");
            panic!("seed {seed}: a stale answer must ride the degradation ladder");
        }
        if after.exact_hits != before.exact_hits {
            record_failure_seed(seed, "version-stale exact entry served as a fresh hit");
            panic!("seed {seed}: a wrong-version exact entry was counted as a fresh hit");
        }
        repairs_total += after.snapshot_repairs - before.snapshot_repairs;
        stale_total += stale_serves;
    }
    // The schedule mix must exercise both outcomes: snapshots repaired
    // under fire, and at least one schedule out of time that fell back to
    // the (marked) stale exact answer.
    assert!(repairs_total > 0, "no snapshot was ever repaired under chaos");
    assert!(stale_total > 0, "no schedule forced a stale exact serve");
}

/// ROADMAP item 5 under fire: one table that keeps growing while the same
/// scope is asked again and again, through a cache too small to hold a
/// copy of the sample. Every repair must start from the previous repair,
/// wherever the deadline cut the run in between — so over a seed's
/// rounds the repairs together cover each appended row at most once — and
/// no answer may count a version-stale exact entry as a fresh hit (every
/// round appends first, so there is never a fresh one).
#[test]
fn append_rounds_under_chaos_repair_each_suffix_at_most_once() {
    use voxolap_data::schema::MeasureId;
    use voxolap_data::{DimValue, IngestRow, LiveTable};
    use voxolap_engine::semantic::SemanticCache;

    const ROUNDS: u64 = 12;
    let base = table();
    let schema = base.schema();
    let echo = |row: usize| IngestRow {
        dims: (0..schema.dimensions().len())
            .map(|d| {
                let id = DimId(d as u8);
                let member = base.member_at(id, row % base.row_count());
                DimValue::Phrase(schema.dimension(id).member(member).phrase.clone())
            })
            .collect(),
        values: (0..schema.measures().len())
            .map(|m| base.measure_value(MeasureId(m as u8), row % base.row_count()))
            .collect(),
    };

    let mut repairs_total = 0u64;
    for seed in 0..20u64 {
        let mut gen = StdRng::seed_from_u64(seed ^ 0x5eed_1173);
        let live = LiveTable::new(base.clone());
        let cache = Arc::new(SemanticCache::new(8 * 16 * 1024));
        let engine = ParallelHolistic::new(HolisticConfig {
            min_samples_per_sentence: 200,
            max_tree_nodes: 30_000,
            seed,
            ..HolisticConfig::default()
        })
        .with_threads(1 + (seed % 2) as usize)
        .with_cache(Arc::clone(&cache));
        // Deadline-free cold answer: the scope's first snapshot.
        {
            let snap = live.snapshot();
            engine.vocalize(&snap, &query(&snap, true), &mut InstantVoice::default());
        }
        let mut appended = 0u64;
        for round in 0..ROUNDS {
            let start = gen.gen_range(0..base.row_count());
            let len = gen.gen_range(1usize..=300);
            let batch: Vec<IngestRow> = (start..start + len).map(echo).collect();
            live.append_rows(&batch).expect("append");
            appended += batch.len() as u64;
            let snap = live.snapshot();
            // Alternating group-bys share the one unfiltered scope.
            let q = query(&snap, round % 2 == 0);
            let cancel = chaos_schedule(seed * ROUNDS + round);
            std::panic::catch_unwind(AssertUnwindSafe(|| {
                engine.stream(&snap, &q, &mut InstantVoice::default(), cancel).drain()
            }))
            .unwrap_or_else(|e| {
                record_failure_seed(seed, "panic escaped an append round");
                std::panic::resume_unwind(e);
            });
            let stats = cache.stats();
            let broken = if stats.exact_hits != 0 {
                "a version-stale exact entry was counted as a fresh hit"
            } else if stats.repair_rows_read > appended {
                "repairs re-covered rows an earlier repair had covered"
            } else {
                continue;
            };
            record_failure_seed(seed, broken);
            panic!("seed {seed} round {round}: {broken} ({appended} rows appended, {stats:?})");
        }
        repairs_total += cache.stats().snapshot_repairs;
    }
    // Most rounds must get as far as a repair, or the bound is vacuous.
    assert!(repairs_total > 20 * ROUNDS / 2, "only {repairs_total} repairs in 240 rounds");
}
