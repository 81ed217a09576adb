//! Cross-crate integration tests: the full pipeline from raw data through
//! query parsing, sampling, planning, and vocalization.

use voxolap_core::approach::Vocalizer;
use voxolap_core::holistic::{Holistic, HolisticConfig};
use voxolap_core::optimal::Optimal;
use voxolap_core::prior::PriorGreedy;
use voxolap_core::unmerged::{SamplingBudget, Unmerged};
use voxolap_core::voice::{InstantVoice, VirtualVoice, VoiceOutput as _};
use voxolap_data::dimension::LevelId;
use voxolap_data::flights::FlightsConfig;
use voxolap_data::salary::SalaryConfig;
use voxolap_data::DimId;
use voxolap_engine::query::{AggFct, Query};
use voxolap_voice::session::Session;
use voxolap_voice::tts::RealTimeVoice;

fn fast_holistic(seed: u64) -> Holistic {
    Holistic::new(HolisticConfig {
        min_samples_per_sentence: 300,
        max_tree_nodes: 50_000,
        seed,
        ..HolisticConfig::default()
    })
}

#[test]
fn all_approaches_answer_the_same_query() {
    let table = FlightsConfig { rows: 20_000, seed: 42 }.generate();
    let query = Query::builder(AggFct::Avg)
        .group_by(DimId(0), LevelId(1))
        .group_by(DimId(1), LevelId(1))
        .build(table.schema())
        .unwrap();

    let approaches: Vec<Box<dyn Vocalizer>> = vec![
        Box::new(fast_holistic(1)),
        Box::new(Optimal::default()),
        Box::new(Unmerged::new(
            HolisticConfig { max_tree_nodes: 50_000, ..HolisticConfig::default() },
            SamplingBudget::Iterations(600),
        )),
        Box::new(PriorGreedy),
    ];
    for approach in &approaches {
        let mut voice = InstantVoice::default();
        let outcome = approach.vocalize(&table, &query, &mut voice);
        assert!(!outcome.sentences.is_empty(), "{} produced no sentences", approach.name());
        let text = outcome.full_text();
        assert!(text.contains("cancellation probability"), "{}: {text}", approach.name());
    }
}

#[test]
fn keyword_session_drives_full_pipeline_with_realtime_voice() {
    let table = FlightsConfig { rows: 10_000, seed: 42 }.generate();
    let mut session = Session::new(&table);
    session.input("break down by season").unwrap();
    session.input("only the north east").unwrap();

    // A very fast wall-clock voice: the planner genuinely overlaps
    // sampling with (short) real speaking time.
    let mut voice = RealTimeVoice::new(20_000.0);
    let outcome =
        session.vocalize_with(&fast_holistic(2), &mut voice).expect("session query is valid");
    voice.wait_until_done();

    assert!(outcome.preamble.contains("the North East"));
    assert!(outcome.preamble.contains("broken down by season"));
    assert_eq!(voice.transcript().len(), 1 + outcome.sentences.len());
}

#[test]
fn count_and_sum_queries_vocalize() {
    let table = SalaryConfig::paper_scale().generate();
    for fct in [AggFct::Count, AggFct::Sum] {
        let query =
            Query::builder(fct).group_by(DimId(0), LevelId(1)).build(table.schema()).unwrap();
        let mut voice = InstantVoice::default();
        let outcome = fast_holistic(3).vocalize(&table, &query, &mut voice);
        assert!(!outcome.sentences.is_empty(), "{fct:?}");
        let expected = match fct {
            AggFct::Count => "number of",
            AggFct::Sum => "total",
            AggFct::Avg => unreachable!(),
        };
        assert!(outcome.sentences[0].contains(expected), "{fct:?}: {}", outcome.sentences[0]);
    }
}

#[test]
fn speech_respects_char_budget_across_approaches() {
    let table = SalaryConfig::paper_scale().generate();
    let query = Query::builder(AggFct::Avg)
        .group_by(DimId(0), LevelId(2)) // 16 states: longer sentences
        .build(table.schema())
        .unwrap();
    let mut voice = InstantVoice::default();
    let holistic = fast_holistic(4).vocalize(&table, &query, &mut voice);
    assert!(holistic.body_len() <= 300, "holistic body {} chars", holistic.body_len());
    let optimal = Optimal::default().vocalize(&table, &query, &mut voice);
    assert!(optimal.body_len() <= 300, "optimal body {} chars", optimal.body_len());
    // The prior approach has no budget — on purpose.
    let prior = PriorGreedy.vocalize(&table, &query, &mut voice);
    assert!(prior.body_len() > 0);
}

#[test]
fn pipelining_reads_more_rows_on_larger_data() {
    // The same speaking time buys the planner more data on a larger table
    // — rows_read scales with what's available, not with a fixed budget.
    let small = FlightsConfig { rows: 2_000, seed: 42 }.generate();
    let large = FlightsConfig { rows: 50_000, seed: 42 }.generate();
    let query = |t: &voxolap_data::Table| {
        Query::builder(AggFct::Avg).group_by(DimId(1), LevelId(1)).build(t.schema()).unwrap()
    };
    let mut voice = VirtualVoice::new(60.0);
    let o_small = fast_holistic(5).vocalize(&small, &query(&small), &mut voice);
    let mut voice = VirtualVoice::new(60.0);
    let o_large = fast_holistic(5).vocalize(&large, &query(&large), &mut voice);
    assert!(o_large.stats.rows_read > o_small.stats.rows_read);
    assert_eq!(o_small.stats.rows_read, 2_000, "small table is fully consumed");
}

#[test]
fn filters_shrink_the_preamble_scope() {
    let table = FlightsConfig { rows: 5_000, seed: 42 }.generate();
    let schema = table.schema();
    let winter = schema.dimension(DimId(1)).member_by_phrase("Winter").unwrap();
    let query = Query::builder(AggFct::Avg)
        .filter(DimId(1), winter)
        .group_by(DimId(0), LevelId(1))
        .build(schema)
        .unwrap();
    let mut voice = InstantVoice::default();
    let outcome = fast_holistic(6).vocalize(&table, &query, &mut voice);
    assert!(outcome.preamble.contains("flights scheduled in Winter"));
    assert!(outcome.preamble.contains("broken down by region"));
}

#[test]
fn star_schema_pipeline_matches_denormalized() {
    use voxolap_data::star::StarSchema;
    let denorm = FlightsConfig { rows: 8_000, seed: 42 }.generate();
    let star = StarSchema::from_table(&denorm, 11);
    let table = star.materialize().expect("valid star rows");
    let query =
        Query::builder(AggFct::Avg).group_by(DimId(1), LevelId(1)).build(table.schema()).unwrap();
    // Exact results over the materialized star equal the denormalized ones.
    let a = voxolap_engine::exact::evaluate(&query, &denorm);
    let b = voxolap_engine::exact::evaluate(&query, &table);
    for agg in 0..query.n_aggregates() as u32 {
        assert_eq!(a.count(agg), b.count(agg));
    }
    // And the planner runs over it unchanged.
    let mut voice = InstantVoice::default();
    let outcome = fast_holistic(12).vocalize(&table, &query, &mut voice);
    assert!(!outcome.sentences.is_empty());
}

#[test]
fn question_to_speech_end_to_end() {
    use voxolap_voice::question::parse_question;
    let table = FlightsConfig { rows: 12_000, seed: 42 }.generate();
    // The paper's Example 1.1 question, end to end.
    let query = parse_question(
        table.schema(),
        "How does the flight cancellation probability in New York depend \
         on flight date and start airport?",
    )
    .expect("question parses");
    let mut voice = InstantVoice::default();
    let outcome = fast_holistic(13).vocalize(&table, &query, &mut voice);
    assert!(outcome.preamble.contains("New York"));
    assert!(outcome.preamble.contains("broken down by"));
    assert!(!outcome.sentences.is_empty());
}

#[test]
fn parallel_holistic_through_session() {
    use voxolap_core::parallel::ParallelHolistic;
    let table = FlightsConfig { rows: 6_000, seed: 42 }.generate();
    let mut session = Session::new(&table);
    session.input("break down by season").unwrap();
    let engine = ParallelHolistic::new(HolisticConfig {
        min_samples_per_sentence: 100,
        max_tree_nodes: 30_000,
        ..HolisticConfig::default()
    })
    .with_threads(4);
    let mut voice = RealTimeVoice::new(5_000.0);
    let outcome = session.vocalize_with(&engine, &mut voice).unwrap();
    voice.wait_until_done();
    assert!(!outcome.sentences.is_empty());
    assert!(outcome.speech.is_some());
}

#[test]
fn parallel_single_thread_matches_holistic_on_flights() {
    use voxolap_core::parallel::ParallelHolistic;
    use voxolap_voice::question::parse_question;
    let table = FlightsConfig { rows: 6_000, seed: 42 }.generate();
    let query = parse_question(
        table.schema(),
        "how does the cancellation probability depend on region and season?",
    )
    .expect("question parses");
    let cfg = HolisticConfig {
        min_samples_per_sentence: 300,
        max_tree_nodes: 30_000,
        ..HolisticConfig::default()
    };
    let mut v1 = InstantVoice::default();
    let seq = Holistic::new(cfg.clone()).vocalize(&table, &query, &mut v1);
    let mut v2 = InstantVoice::default();
    let par = ParallelHolistic::new(cfg).with_threads(1).vocalize(&table, &query, &mut v2);
    assert_eq!(par.sentences, seq.sentences);
    assert_eq!(par.stats.samples, seq.stats.samples);
}

/// One deadline means one thing on every approach (DESIGN.md §12): a
/// planning loop the deadline cuts commits its anytime answer — at least
/// the baseline — and the answer says `degraded`; an uncut answer never
/// does; and every answer of an approach that carries the front end's
/// bundle is counted in it exactly once. A sampled approach cut before its
/// first sample commits by one rule (`SpeechTree::commit_child`): the
/// baseline nearest its warm-up estimate, the same sentence on all four.
#[test]
fn the_deadline_matrix() {
    use std::sync::Arc;
    use std::time::Instant;
    use voxolap_core::approach::{vocalizer, ApproachOptions};
    use voxolap_core::CancelToken;
    use voxolap_faults::Resilience;

    let table = FlightsConfig { rows: 50_000, seed: 42 }.generate();
    let query = Query::builder(AggFct::Avg)
        .group_by(DimId(0), LevelId(1))
        .group_by(DimId(1), LevelId(1))
        .build(table.schema())
        .unwrap();
    let bundle = Arc::new(Resilience::default());
    let opts = ApproachOptions {
        threads: Some(2),
        resilience: bundle.clone(),
        ..ApproachOptions::default()
    };
    let answered = || {
        let s = bundle.stats().snapshot();
        s.clean_answers + s.degraded_answers
    };

    // (name, approach, has a planning loop, counted in `bundle`): `prior`
    // has no loop to cut and takes no bundle; the bare engine has a loop
    // and an inert bundle of its own.
    let built = |name| vocalizer(name, &opts).unwrap();
    let bare: Box<dyn Vocalizer> = Box::new(Holistic::new(opts.holistic_config()));
    let approaches = [
        ("holistic", built("holistic"), true, true),
        ("parallel", built("parallel"), true, true),
        ("optimal", built("optimal"), true, true),
        ("unmerged", built("unmerged"), true, true),
        ("prior", built("prior"), false, false),
        ("bare holistic", bare, true, false),
    ];

    let mut cut_before_sampling = Vec::new();
    for (name, approach, has_loop, shares_bundle) in &approaches {
        for expired in [true, false] {
            let cancel = match expired {
                true => CancelToken::with_deadline(Instant::now()),
                false => CancelToken::never(),
            };
            let before = answered();
            let mut voice = InstantVoice::default();
            let outcome = approach.stream(&table, &query, &mut voice, cancel).drain();
            let cell = format!("{name}, expired: {expired}: {:?}", outcome.sentences);
            let baseline = outcome.sentences.first().unwrap_or_else(|| panic!("{cell}"));
            assert!(baseline.contains("is the average cancellation probability"), "{cell}");
            assert_eq!(outcome.stats.degraded, expired && *has_loop, "{cell}");
            assert_eq!(answered() - before, u64::from(*shares_bundle), "{cell}");
            if expired && !matches!(*name, "optimal" | "prior") {
                cut_before_sampling.push((*name, baseline.clone()));
            }
        }
    }
    assert_eq!(cut_before_sampling.len(), 4);
    let (_, first) = &cut_before_sampling[0];
    assert!(cut_before_sampling.iter().all(|(_, s)| s == first), "{cut_before_sampling:?}");
}
