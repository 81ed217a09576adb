//! Per-layer micro-series: every layer timed in isolation, from outside,
//! through its public functions, at the same scale the workloads run at
//! (the paper-scale table for scanning and planning, the small one for
//! append, repair and exact hits).
//!
//! Each series is the median of [`SAMPLES`] samples; a sample repeats its
//! unit of work until its share of the time budget is used.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use voxolap_belief::model::BeliefModel;
use voxolap_belief::quality::speech_quality;
use voxolap_core::holistic::Holistic;
use voxolap_core::parallel::{ingest_throughput, sampling_throughput};
use voxolap_core::tree::SpeechTree;
use voxolap_core::voice::InstantVoice;
use voxolap_core::{CancelToken, Vocalizer};
use voxolap_data::flights::FlightsConfig;
use voxolap_data::{DurabilityOptions, DurableTable, FsyncMode, LiveTable};
use voxolap_engine::cache::{ResampleScratch, SampleCache};
use voxolap_engine::exact::evaluate;
use voxolap_engine::repair::repair_snapshot;
use voxolap_engine::semantic::SemanticCache;
use voxolap_engine::sharded::{IngestBatch, ShardedSampleCache};
use voxolap_faults::Resilience;
use voxolap_json::Value;
use voxolap_speech::ast::Speech;
use voxolap_speech::candidates::CandidateGenerator;
use voxolap_speech::parse::parse_body;
use voxolap_speech::render::Renderer;
use voxolap_speech::scope::CompiledSpeech;
use voxolap_voice::question::parse_question;
use voxolap_voice::session::Session;

use crate::host;
use crate::report::{metric, Metric};
use crate::script;
use crate::stats::median;
use crate::workloads::{
    server_planner_config, BATCH_ROWS, OUT_DIR, TABLE_SEED, UTTERANCE_DEADLINE,
};

/// Samples per series, where its share of the budget allows.
const SAMPLES: usize = 5;
/// Shares the budget is cut into: one per series, and as many again held
/// back for the work between them (tables, trees, the cache-filling
/// answer) and for units that outlast their share.
const SHARES: u32 = 60;

const Q_RD: &str = "cancellation probability by region and season";
const Q_RA: &str = "cancellation probability by region and airline";

/// Median seconds per call of `work` and the number of samples behind it.
/// A sample repeats `work` for a fifth of `share`; sampling stops after
/// [`SAMPLES`] samples or once `share` is used up, so a unit slower than
/// its share is timed once. `work` may batch cheap operations itself.
fn seconds_per_call(share: Duration, mut work: impl FnMut()) -> (f64, usize) {
    let started = Instant::now();
    let mut samples = Vec::with_capacity(SAMPLES);
    while samples.len() < SAMPLES && (samples.is_empty() || started.elapsed() < share) {
        let t = Instant::now();
        let mut calls = 0u32;
        loop {
            work();
            calls += 1;
            if t.elapsed() >= share / SAMPLES as u32 {
                break;
            }
        }
        samples.push(t.elapsed().as_secs_f64() / f64::from(calls));
    }
    (median(&samples), samples.len())
}

/// A two-refinement speech over `query`, as a planner would pick from the
/// candidate space.
fn sample_speech(generator: &CandidateGenerator<'_>, grand: f64) -> Speech {
    let mut speech = Speech::baseline_only(generator.baselines(grand)[0].value);
    for _ in 0..2 {
        match generator.refinements(&speech).into_iter().next() {
            Some(r) => speech = speech.with_refinement(r),
            None => break,
        }
    }
    speech
}

/// Run every micro-series within about `budget`. The WAL directory of
/// the durable-append series goes under [`OUT_DIR`] and is removed again.
pub fn run(paper_rows: usize, small_rows: usize, budget: Duration) -> Vec<Metric> {
    let sample = budget / SHARES;
    let mut out: Vec<Metric> = Vec::new();
    let mut put = |name: &str, value: f64, n: usize, unit: &'static str| {
        out.push(metric(name, value, unit, n));
    };
    let threads = host::nproc();
    let mut rng = StdRng::seed_from_u64(TABLE_SEED);

    // ---- data ----------------------------------------------------------
    let generate = |rows| FlightsConfig { rows, seed: TABLE_SEED }.generate();
    let per_table = seconds_per_call(sample, || {
        std::hint::black_box(generate(small_rows));
    });
    put("data.generate_rows_per_s", small_rows as f64 / per_table.0, per_table.1, "1/s");
    let small = generate(small_rows);
    let paper = generate(paper_rows);
    let schema = paper.schema();
    let q_rd = parse_question(schema, Q_RD).expect("micro question parses");
    let q_ra = parse_question(schema, Q_RA).expect("micro question parses");

    let mut blocks = 0u64;
    let drain = seconds_per_call(sample, || {
        let mut scan = paper.scan_shuffled(TABLE_SEED);
        blocks = 0;
        while let Some(block) = scan.next_block(usize::MAX) {
            std::hint::black_box(block.rows.len());
            blocks += 1;
        }
    });
    put("data.scan_rows_per_s", paper_rows as f64 / drain.0, drain.1, "1/s");
    put("data.scan_block_us", drain.0 * 1e6 / blocks.max(1) as f64, drain.1, "us");

    let live = LiveTable::new(small.clone());
    let pin = seconds_per_call(sample, || {
        for _ in 0..1_000 {
            std::hint::black_box(live.snapshot());
        }
    });
    put("data.snapshot_pin_ns", pin.0 * 1e9 / 1_000.0, pin.1, "ns");

    let batch = script::echo_rows(&small, 0, BATCH_ROWS.min(small_rows));
    let append = seconds_per_call(sample, || {
        live.append_rows(&batch).expect("in-memory append");
    });
    put("data.append_ms_p50", append.0 * 1e3, append.1, "ms");
    drop(live);

    let dir = Path::new(OUT_DIR).join(format!("micro-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // No compaction, so the log's length is the bytes written per row.
    let options =
        DurabilityOptions { fsync_mode: FsyncMode::Batch, snapshot_every_batches: 0, faults: None };
    let (durable, _) =
        DurableTable::open(small.clone(), &dir, options.clone()).expect("open micro WAL dir");
    let wal_append = seconds_per_call(sample, || {
        durable.append_rows(&batch).expect("durable append");
    });
    put("data.wal_append_ms_p50", wal_append.0 * 1e3, wal_append.1, "ms");
    let wal = durable.stats().expect("durable tables have stats");
    let appended = (wal.wal_appends as usize * batch.len()).max(1);
    put("data.wal_bytes_per_row", wal.wal_bytes as f64 / appended as f64, 1, "B");
    put("data.fsyncs", wal.fsyncs as f64, 1, "count");
    durable.shutdown_clean().expect("flush micro WAL");
    drop(durable);
    let (_, recovery) = DurableTable::open(small.clone(), &dir, options).expect("reopen micro WAL");
    put("data.recovery_ms", recovery.recovery_ms, 1, "ms");
    put(
        "data.recovered_batches",
        (recovery.snapshot_batches + recovery.replayed_batches) as f64,
        1,
        "count",
    );
    let _ = std::fs::remove_dir_all(&dir);

    // ---- engine --------------------------------------------------------
    let layout = q_rd.layout();
    let mut aggs = Vec::new();
    let resolve = seconds_per_call(sample, || {
        let mut scan = paper.scan_shuffled(TABLE_SEED);
        while let Some(block) = scan.next_block(usize::MAX) {
            layout.agg_of_block(block.dims, block.rows, &mut aggs);
            std::hint::black_box(aggs.len());
        }
    });
    put("engine.resolve_rows_per_s", paper_rows as f64 / resolve.0, resolve.1, "1/s");

    let observe = seconds_per_call(sample, || {
        let cache = ShardedSampleCache::new(q_rd.n_aggregates(), paper_rows as u64);
        let mut batch = IngestBatch::new(q_rd.n_aggregates());
        let mut scan = paper.scan_shuffled(TABLE_SEED);
        while let Some(block) = scan.next_block(usize::MAX) {
            layout.agg_of_block(block.dims, block.rows, &mut aggs);
            for (i, &r) in block.rows.iter().enumerate() {
                batch.push_resolved(aggs[i], block.values[r as usize]);
            }
            cache.observe_batch(&mut batch);
        }
    });
    put("engine.observe_rows_per_s", paper_rows as f64 / observe.0, observe.1, "1/s");

    let mut samples =
        SampleCache::new(q_rd.n_aggregates(), small_rows as u64).with_resample_size(200);
    let mut scan = small.scan_shuffled(TABLE_SEED);
    while let Some(row) = scan.next_row() {
        samples.observe_row(layout, row.members, row.value);
    }
    let mut scratch_buf = ResampleScratch::new();
    let n_aggs = q_rd.n_aggregates() as u32;
    let estimate = seconds_per_call(sample, || {
        for agg in 0..1_000u32 {
            std::hint::black_box(samples.estimate_with(agg % n_aggs, &mut rng, &mut scratch_buf));
        }
    });
    put("engine.estimate_ns", estimate.0 * 1e9 / 1_000.0, estimate.1, "ns");

    let exact_eval = seconds_per_call(sample, || {
        std::hint::black_box(evaluate(&q_rd, &paper));
    });
    put("engine.exact_eval_ms", exact_eval.0 * 1e3, exact_eval.1, "ms");

    // One real answer fills a semantic cache with what the lookups find.
    let cache = Arc::new(SemanticCache::with_capacity_mb(64));
    let planner = Holistic::new(server_planner_config()).with_cache(Arc::clone(&cache));
    planner.vocalize(&small, &q_rd, &mut InstantVoice::default());
    let exact_small = evaluate(&q_rd, &small);
    let (key, scope) = (q_rd.key(), q_rd.key().scope());
    let admit = seconds_per_call(sample, || {
        for _ in 0..100 {
            cache.admit_exact(
                &key,
                small.version(),
                exact_small.counts().to_vec(),
                exact_small.sums().to_vec(),
            );
        }
    });
    put("engine.sem_admit_us", admit.0 * 1e6 / 100.0, admit.1, "us");
    let lookup = seconds_per_call(sample, || {
        for _ in 0..1_000 {
            std::hint::black_box(cache.lookup_exact(&key, small.version()));
        }
    });
    put("engine.sem_lookup_exact_ns", lookup.0 * 1e9 / 1_000.0, lookup.1, "ns");
    let lookup = seconds_per_call(sample, || {
        for _ in 0..1_000 {
            std::hint::black_box(cache.lookup_snapshot(&scope, TABLE_SEED));
        }
    });
    put("engine.sem_lookup_snapshot_ns", lookup.0 * 1e9 / 1_000.0, lookup.1, "ns");

    let grown = small.append_rows(&batch).expect("append for repair").0;
    match cache.lookup_snapshot(&scope, TABLE_SEED) {
        Some(donor) => {
            let mut rows_read = 0;
            let repair = seconds_per_call(sample, || {
                rows_read = repair_snapshot(&donor, &grown, &scope).map_or(0, |r| r.rows_read);
            });
            put("engine.repair_ms_p50", repair.0 * 1e3, repair.1, "ms");
            put("engine.repair_rows_read", rows_read as f64, 1, "count");
        }
        None => {
            // The answer above read too few rows to leave a snapshot.
            put("engine.repair_ms_p50", 0.0, 1, "ms");
            put("engine.repair_rows_read", 0.0, 1, "count");
        }
    }
    drop(grown);

    // ---- speech / belief / mcts / core, on the 20- and 70-aggregate
    // questions -------------------------------------------------------
    let config = server_planner_config();
    let grand = evaluate(&q_rd, &small).grand_mean();
    for (query, size) in [(&q_rd, 20), (&q_ra, 70)] {
        let renderer = Renderer::new(schema, query);
        let generator = CandidateGenerator::new(schema, query, config.candidates.clone());
        let mut nodes = 0;
        let build = seconds_per_call(sample, || {
            let tree = SpeechTree::build(
                &generator,
                &renderer,
                &config.constraints,
                grand,
                config.max_tree_nodes,
            );
            nodes = tree.tree().node_count();
        });
        put(&format!("core.tree_build_ms_{size}"), build.0 * 1e3, build.1, "ms");
        put(&format!("core.tree_nodes_{size}"), nodes as f64, 1, "count");

        let speech = sample_speech(&generator, grand);
        let compiled = CompiledSpeech::compile(&speech, query.layout(), schema);
        let exact = evaluate(query, &small);
        let model = BeliefModel::from_overall_mean(grand);
        let quality = seconds_per_call(sample, || {
            for _ in 0..100 {
                std::hint::black_box(speech_quality(&compiled, &model, &exact, query.layout()));
            }
        });
        put(&format!("belief.quality_us_{size}"), quality.0 * 1e6 / 100.0, quality.1, "us");
    }

    let renderer = Renderer::new(schema, &q_rd);
    let generator = CandidateGenerator::new(schema, &q_rd, config.candidates.clone());
    let speech = sample_speech(&generator, grand);
    let candidates = seconds_per_call(sample, || {
        let g = CandidateGenerator::new(schema, &q_rd, config.candidates.clone());
        std::hint::black_box((g.baselines(grand), g.refinements(&speech)));
    });
    put("speech.candidates_us", candidates.0 * 1e6, candidates.1, "us");
    let render = seconds_per_call(sample, || {
        for _ in 0..100 {
            std::hint::black_box(renderer.body_text(&speech));
        }
    });
    put("speech.render_us", render.0 * 1e6 / 100.0, render.1, "us");
    let body = renderer.body_text(&speech);
    let parse = seconds_per_call(sample, || {
        for _ in 0..100 {
            std::hint::black_box(parse_body(&body, schema, &q_rd).expect("rendered speech parses"));
        }
    });
    put("speech.parse_body_us", parse.0 * 1e6 / 100.0, parse.1, "us");

    let tree =
        SpeechTree::build(&generator, &renderer, &config.constraints, grand, config.max_tree_nodes);
    let select = seconds_per_call(sample, || {
        for _ in 0..1_000 {
            let path = tree.tree().select_path(SpeechTree::ROOT, &mut rng);
            tree.tree().update_path(&path, 0.5);
        }
    });
    put("mcts.select_update_ns", select.0 * 1e9 / 1_000.0, select.1, "ns");
    drop(tree);

    // The throughput helpers time themselves: one sample of one share.
    let mut rate = |name: &str, per_s: f64| put(name, per_s, 1, "1/s");
    rate(
        "mcts.samples_per_s_t1",
        sampling_throughput(&paper, &q_rd, &config, 1, sample).samples_per_sec(),
    );
    rate(
        "mcts.samples_per_s_tN",
        sampling_throughput(&paper, &q_rd, &config, threads, sample).samples_per_sec(),
    );
    rate(
        "core.ingest_rows_per_s_t1",
        ingest_throughput(&paper, &q_rd, TABLE_SEED, 1, sample).rows_per_sec(),
    );
    rate(
        "core.ingest_rows_per_s_tN",
        ingest_throughput(&paper, &q_rd, TABLE_SEED, threads, sample).rows_per_sec(),
    );

    // The exact-hit answer: `plan_from_exact` behind a pre-filled key,
    // under the session transport's deadline so one sample stays bounded.
    let cache = Arc::new(SemanticCache::with_capacity_mb(64));
    cache.admit_exact(
        &key,
        small.version(),
        exact_small.counts().to_vec(),
        exact_small.sums().to_vec(),
    );
    let hit_planner = Holistic::new(server_planner_config())
        .with_cache(cache)
        .with_resilience(Arc::new(Resilience::default()));
    let t = Instant::now();
    let cancel = CancelToken::with_deadline(t + UTTERANCE_DEADLINE);
    std::hint::black_box(
        hit_planner.stream(&small, &q_rd, &mut InstantVoice::default(), cancel).drain(),
    );
    put("core.exact_hit_answer_ms_20", t.elapsed().as_secs_f64() * 1e3, 1, "ms");

    // ---- voice / json --------------------------------------------------
    let parse = seconds_per_call(sample, || {
        std::hint::black_box(parse_question(schema, Q_RD).expect("micro question parses"));
    });
    put("voice.parse_question_us", parse.0 * 1e6, parse.1, "us");
    let input = seconds_per_call(sample, || {
        let mut session = Session::new(&small);
        std::hint::black_box(session.input("break down by region").is_ok());
    });
    put("voice.session_input_us", input.0 * 1e6, input.1, "us");

    let body = script::ingest_body(&batch);
    let parse = seconds_per_call(sample, || {
        for line in body.lines() {
            std::hint::black_box(Value::parse(line).expect("ingest line is JSON"));
        }
    });
    put("json.parse_mb_per_s", body.len() as f64 / 1e6 / parse.0, parse.1, "MB/s");
    let serialize = seconds_per_call(sample, || {
        for _ in 0..100 {
            std::hint::black_box(
                Value::obj([
                    ("type", "done".into()),
                    ("sentences", 3u64.into()),
                    ("samples", 70_200u64.into()),
                    ("rows_read", 561_800u64.into()),
                    ("planning_ms", 917.100641.into()),
                    ("cancelled", false.into()),
                ])
                .to_string(),
            );
        }
    });
    put("json.serialize_us", serialize.0 * 1e6 / 100.0, serialize.1, "us");
    out
}
