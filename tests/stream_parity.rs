//! Stream/blocking parity: the pull-based [`SpeechStream`] must deliver
//! exactly the transcript `vocalize()` produces — for every approach, at
//! one and at four planning threads, and regardless of semantic-cache
//! state (cold, exact hit, warm start).
//!
//! [`SpeechStream`]: voxolap_core::SpeechStream

use std::sync::Arc;

use voxolap_core::approach::Vocalizer;
use voxolap_core::holistic::{Holistic, HolisticConfig};
use voxolap_core::optimal::Optimal;
use voxolap_core::parallel::ParallelHolistic;
use voxolap_core::prior::PriorGreedy;
use voxolap_core::unmerged::{SamplingBudget, Unmerged};
use voxolap_core::voice::{InstantVoice, VoiceOutput as _};
use voxolap_core::CancelToken;
use voxolap_data::dimension::LevelId;
use voxolap_data::flights::FlightsConfig;
use voxolap_data::{DimId, Table};
use voxolap_engine::query::{AggFct, Query};
use voxolap_engine::semantic::SemanticCache;

fn table() -> Table {
    FlightsConfig { rows: 6_000, seed: 42 }.generate()
}

fn region_season(table: &Table) -> Query {
    Query::builder(AggFct::Avg)
        .group_by(DimId(0), LevelId(1))
        .group_by(DimId(1), LevelId(1))
        .build(table.schema())
        .unwrap()
}

fn region_only(table: &Table) -> Query {
    Query::builder(AggFct::Avg).group_by(DimId(0), LevelId(1)).build(table.schema()).unwrap()
}

fn config(seed: u64) -> HolisticConfig {
    HolisticConfig { min_samples_per_sentence: 300, seed, ..HolisticConfig::default() }
}

/// Drain a stream sentence by sentence, asserting internal consistency —
/// the collected sequence must equal both the `finish()` outcome and the
/// voice transcript — and return (preamble, sentences).
fn streamed(v: &dyn Vocalizer, table: &Table, query: &Query) -> (String, Vec<String>) {
    let mut voice = InstantVoice::default();
    let mut stream = v.stream(table, query, &mut voice, CancelToken::never());
    let preamble = stream.preamble().to_string();
    let mut collected = Vec::new();
    while let Some(s) = stream.next_sentence() {
        assert_eq!(s.index, collected.len(), "{}: indices are sequential", v.name());
        collected.push(s.text);
    }
    let outcome = stream.finish();
    assert_eq!(outcome.preamble, preamble, "{}", v.name());
    assert_eq!(outcome.sentences, collected, "{}: finish() must mirror the stream", v.name());
    let mut spoken = vec![preamble.clone()];
    spoken.extend(collected.iter().cloned());
    assert_eq!(voice.transcript(), &spoken[..], "{}: voice heard every sentence once", v.name());
    (preamble, collected)
}

/// The blocking transcript via the `vocalize()` drain adapter.
fn blocking(v: &dyn Vocalizer, table: &Table, query: &Query) -> (String, Vec<String>) {
    let mut voice = InstantVoice::default();
    let o = v.vocalize(table, query, &mut voice);
    (o.preamble, o.sentences)
}

#[test]
fn stream_matches_blocking_for_every_approach() {
    let t = table();
    let q = region_season(&t);
    let approaches: Vec<Box<dyn Vocalizer>> = vec![
        Box::new(Holistic::new(config(7))),
        Box::new(Optimal::default()),
        Box::new(Unmerged::new(
            HolisticConfig { seed: 7, ..HolisticConfig::default() },
            SamplingBudget::Iterations(600),
        )),
        Box::new(PriorGreedy),
    ];
    for v in &approaches {
        let s = streamed(v.as_ref(), &t, &q);
        let b = blocking(v.as_ref(), &t, &q);
        assert_eq!(s, b, "{}: streamed and blocking transcripts differ", v.name());
        assert!(!s.1.is_empty(), "{}: no sentences", v.name());
    }
}

/// Golden pin of the cooperative engine. It anchors worker 0's RNG
/// stream, the seeded scan order, the cooperative polling sequence and the
/// reward's estimator — any drift means `Holistic` no longer speaks what it
/// spoke when this was captured.
///
/// Re-captured when the reward's estimate became a draw from the normal
/// posterior of the bucket mean instead of a fixed-size resample. The old
/// transcript said "Around two point five percent" (truth 1.86 %). At 300
/// samples per sentence the first commit comes after ~2 600 of 6 000 rows,
/// when a bucket holds ~130 values, and the early iterations draw from
/// buckets of ~10: the draw is honest about how little that is, and at
/// this budget that costs the baseline. Over 20 seeds the median Def. 2.2
/// lift here moved 0.85 → 0.79 at 300 samples per sentence, 0.95 → 0.96
/// at 2 000 and 0.98 → 1.02 at 8 000, the served floor.
#[test]
fn holistic_seed_7_speaks_the_pinned_transcript() {
    let t = table();
    let q = region_season(&t);
    let (preamble, sentences) = blocking(&Holistic::new(config(7)), &t, &q);
    assert_eq!(
        preamble,
        "Considering flights starting from anywhere, flights scheduled in any date and \
         flights operated by any airline. Results are broken down by region and season."
    );
    assert_eq!(
        sentences,
        [
            "Around eight percent is the average cancellation probability.",
            "Values increase by 50 percent for flights scheduled in Fall.",
            "Values decrease by 20 percent for flights scheduled in Spring.",
        ]
    );
}

/// Golden pins of a speech space the node cap cuts, captured before the
/// refinement subtree was stored once for every baseline: the seed-7
/// `Holistic` transcript and the `Optimal` sentences, with the node count
/// and the cut both report. By region and airline the 500 000-node cap
/// keeps 11 of the 17 baselines, the last one in part; region × season at
/// a 100 000-node cap is cut inside a baseline's subtree.
#[test]
fn cut_spaces_speak_the_pinned_transcripts() {
    let t = table();
    let region_airline = Query::builder(AggFct::Avg)
        .group_by(DimId(0), LevelId(1))
        .group_by(DimId(2), LevelId(1))
        .build(t.schema())
        .unwrap();
    // Name, query, node cap, then the Holistic and the Optimal sentences.
    type Golden = (&'static str, Query, usize, [&'static str; 3], [&'static str; 3]);
    let cases: [Golden; 2] = [
        (
            "region x airline",
            region_airline,
            500_000,
            [
                "Around seven percent is the average cancellation probability.",
                "Values decrease by 25 percent for flights operated by Delta Air Lines Inc..",
                "Values increase by 10 percent for flights starting from the Midwest.",
            ],
            [
                "Around two percent is the average cancellation probability.",
                "Values increase by 50 percent for flights starting from the Midwest.",
                "Values increase by 50 percent for flights operated by Virgin America.",
            ],
        ),
        (
            "region x season",
            region_season(&t),
            100_000,
            [
                "Around two percent is the average cancellation probability.",
                "Values decrease by 20 percent for flights starting from the South.",
                "Values increase by 200 percent for flights starting from the Midwest.",
            ],
            [
                "Around two point five percent is the average cancellation probability.",
                "Values increase by 100 percent for flights starting from the Midwest.",
                "Values decrease by 25 percent for flights scheduled in Fall.",
            ],
        ),
    ];
    for (name, q, max_tree_nodes, holistic, optimal) in &cases {
        let max_tree_nodes = *max_tree_nodes;
        let engine = Holistic::new(HolisticConfig { max_tree_nodes, ..config(7) });
        let optimal_engine =
            Optimal::new(HolisticConfig { max_tree_nodes, ..HolisticConfig::default() });
        for (v, want) in [(&engine as &dyn Vocalizer, holistic), (&optimal_engine, optimal)] {
            let o = v.vocalize(&t, q, &mut InstantVoice::default());
            assert_eq!(o.sentences, want, "{name}: {}", v.name());
            let cut = (o.stats.tree_nodes, o.stats.truncated);
            assert_eq!(cut, (max_tree_nodes, true), "{name}: {}", v.name());
        }
    }
}

#[test]
fn four_thread_stream_is_internally_consistent() {
    let t = table();
    let q = region_season(&t);
    // Multi-thread sampling is not reproducible run to run, so parity is
    // asserted within one run (collected == finish() == transcript, via
    // the helper) rather than against a second blocking run.
    let v = ParallelHolistic::new(config(7)).with_threads(4);
    let (_, sentences) = streamed(&v, &t, &q);
    assert!(!sentences.is_empty());
}

/// Cancelling between two pulls ends the speech at the sentence already
/// spoken: the next pull yields nothing and `finish()` covers that much.
#[test]
fn no_sentence_follows_a_cancel() {
    let t = table();
    let q = region_season(&t);
    let mut voice = InstantVoice::default();
    let cancel = CancelToken::new();
    let mut stream = Holistic::new(config(7)).stream(&t, &q, &mut voice, cancel.clone());
    assert!(stream.next_sentence().is_some());
    cancel.cancel();
    assert!(stream.next_sentence().is_none(), "no sentence may follow the cancellation");
    assert_eq!(stream.finish().sentences.len(), 1);
}

/// A semantic cache holding the exact result of `q` (admitted by the
/// optimal approach, which always evaluates exactly).
fn cache_with_exact(t: &Table, q: &Query) -> Arc<SemanticCache> {
    let cache = Arc::new(SemanticCache::with_capacity_mb(16));
    let opt = Optimal::default().with_cache(cache.clone());
    let mut voice = InstantVoice::default();
    let _ = opt.vocalize(t, q, &mut voice);
    assert!(cache.stats().admissions >= 1, "seeding run must admit");
    cache
}

#[test]
fn exact_hit_stream_matches_blocking() {
    let t = table();
    let q = region_season(&t);
    // Identically-seeded caches for the two runs keep them independent.
    for threads in [1usize, 4] {
        let s_engine = ParallelHolistic::new(config(7))
            .with_threads(threads)
            .with_cache(cache_with_exact(&t, &q));
        let b_engine = ParallelHolistic::new(config(7))
            .with_threads(threads)
            .with_cache(cache_with_exact(&t, &q));
        // Exact hits skip sampling entirely, so even the multi-threaded
        // engine is deterministic here and full parity holds.
        let s = streamed(&s_engine, &t, &q);
        let b = blocking(&b_engine, &t, &q);
        assert_eq!(s, b, "threads={threads}: exact-hit transcripts differ");
    }
    let s_engine = Holistic::new(config(7)).with_cache(cache_with_exact(&t, &q));
    let b_engine = Holistic::new(config(7)).with_cache(cache_with_exact(&t, &q));
    assert_eq!(streamed(&s_engine, &t, &q), blocking(&b_engine, &t, &q));
}

#[test]
fn warm_started_stream_matches_blocking() {
    let t = table();
    let donor = region_only(&t);
    let target = region_season(&t);
    // Each run gets its own cache, populated by an identical donor query,
    // so the streamed and the blocking run warm-start from equal snapshots.
    let seeded = || {
        let cache = Arc::new(SemanticCache::with_capacity_mb(16));
        let engine = Holistic::new(config(7)).with_cache(cache.clone());
        let mut voice = InstantVoice::default();
        let _ = engine.vocalize(&t, &donor, &mut voice);
        assert!(cache.stats().admissions >= 1, "donor run must admit");
        cache
    };
    let s_cache = seeded();
    let b_cache = seeded();
    let s = streamed(&Holistic::new(config(7)).with_cache(s_cache.clone()), &t, &target);
    let b = blocking(&Holistic::new(config(7)).with_cache(b_cache.clone()), &t, &target);
    assert_eq!(s, b, "warm-started transcripts differ");
    let (ss, bs) = (s_cache.stats(), b_cache.stats());
    assert_eq!(
        (ss.exact_hits, ss.warm_hits),
        (bs.exact_hits, bs.warm_hits),
        "both runs must be served by the same cache layer"
    );
}
