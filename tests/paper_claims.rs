//! Tests pinning the paper's quantitative claims, at test-friendly scale:
//!
//! * Theorem A.1 — belief models stay consistent with the baseline claim;
//! * Example 3.4 — the worked belief-mean numbers;
//! * Figure 3's shape — latency ordering and quality ordering;
//! * Table 9's shape — the prior baseline's output is much longer and the
//!   gap grows with dimensionality;
//! * Lemma A.2 / Theorem A.3 — structural cost bounds of sampling.

use voxolap_belief::model::BeliefModel;
use voxolap_belief::quality::speech_quality;
use voxolap_bench::{outcome_quality, region_season_query};
use voxolap_core::approach::Vocalizer;
use voxolap_core::holistic::{Holistic, HolisticConfig};
use voxolap_core::optimal::Optimal;
use voxolap_core::prior::PriorGreedy;
use voxolap_core::unmerged::{SamplingBudget, Unmerged};
use voxolap_core::voice::{InstantVoice, VirtualVoice};
use voxolap_data::dimension::LevelId;
use voxolap_data::flights::FlightsConfig;
use voxolap_data::salary::SalaryConfig;
use voxolap_data::DimId;
use voxolap_engine::exact::evaluate;
use voxolap_engine::query::{AggFct, Query};
use voxolap_speech::ast::{Baseline, Change, Direction, Predicate, Refinement, Speech};
use voxolap_speech::scope::CompiledSpeech;

#[test]
fn theorem_a1_baseline_consistency() {
    // Any refinement sequence leaves the average belief mean equal to the
    // baseline value.
    let table = SalaryConfig::paper_scale().generate();
    let schema = table.schema();
    let query = Query::builder(AggFct::Avg)
        .group_by(DimId(0), LevelId(1))
        .group_by(DimId(1), LevelId(1))
        .build(schema)
        .unwrap();
    let ne = schema.dimension(DimId(0)).member_by_phrase("the North East").unwrap();
    let mw = schema.dimension(DimId(0)).member_by_phrase("the Midwest").unwrap();
    let hi = schema.dimension(DimId(1)).member_by_phrase("at least 50 K").unwrap();
    let speech = Speech {
        baseline: Baseline::point(77.7),
        refinements: vec![
            Refinement {
                predicates: vec![Predicate { dim: DimId(0), member: ne }],
                change: Change { direction: Direction::Increase, percent: 50 },
            },
            Refinement {
                predicates: vec![Predicate { dim: DimId(1), member: hi }],
                change: Change { direction: Direction::Decrease, percent: 25 },
            },
            Refinement {
                predicates: vec![Predicate { dim: DimId(0), member: mw }],
                change: Change { direction: Direction::Increase, percent: 200 },
            },
        ],
    };
    let cs = CompiledSpeech::compile(&speech, query.layout(), schema);
    let means = cs.means_all(query.layout());
    let avg = means.iter().sum::<f64>() / means.len() as f64;
    assert!((avg - 77.7).abs() < 1e-9, "average of belief means {avg} == baseline 77.7");
}

#[test]
fn example_3_4_numbers() {
    // "The average salary is 80 K. Values increase by 50% for graduates
    // from the Northeast." -> B(Northeast) = N(120_000, sigma),
    // B(others) = N(66_667, sigma), sigma = 40_000 (in K: 120/66.67/40).
    let table = SalaryConfig::paper_scale().generate();
    let schema = table.schema();
    let query = Query::builder(AggFct::Avg).group_by(DimId(0), LevelId(1)).build(schema).unwrap();
    let ne = schema.dimension(DimId(0)).member_by_phrase("the North East").unwrap();
    let speech = Speech {
        baseline: Baseline::point(80.0),
        refinements: vec![Refinement {
            predicates: vec![Predicate { dim: DimId(0), member: ne }],
            change: Change { direction: Direction::Increase, percent: 50 },
        }],
    };
    let cs = CompiledSpeech::compile(&speech, query.layout(), schema);
    let model = BeliefModel::from_overall_mean(80.0);
    assert_eq!(model.sigma(), 40.0, "sigma is half the overall mean");
    let ne_idx = query.layout().coords(DimId(0)).iter().position(|&m| m == ne).unwrap() as u32;
    let b_ne = model.belief(&cs, ne_idx, query.layout());
    assert!((b_ne.mean - 120.0).abs() < 1e-9);
    for agg in 0..query.n_aggregates() as u32 {
        if agg != ne_idx {
            let b = model.belief(&cs, agg, query.layout());
            assert!((b.mean - 200.0 / 3.0).abs() < 1e-6, "others get 66.667, got {}", b.mean);
        }
    }
}

#[test]
fn figure_3_shape_small_scale() {
    let table = FlightsConfig { rows: 30_000, seed: 42 }.generate();
    let query = region_season_query(&table);

    let mut voice = InstantVoice::default();
    let optimal = Optimal::default().vocalize(&table, &query, &mut voice);
    let mut voice = VirtualVoice::new(100.0);
    let holistic =
        Holistic::new(HolisticConfig { resample_size: 200, seed: 42, ..HolisticConfig::default() })
            .vocalize(&table, &query, &mut voice);
    let mut voice = InstantVoice::default();
    // A starved unmerged run (few iterations ~ tight time budget at the
    // paper's data scale).
    let unmerged = Unmerged::new(
        HolisticConfig { resample_size: 200, seed: 42, ..HolisticConfig::default() },
        SamplingBudget::Iterations(150),
    )
    .vocalize(&table, &query, &mut voice);

    // Latency ordering: holistic starts speaking immediately; optimal pays
    // for the full evaluation + exhaustive scoring.
    assert!(holistic.latency < optimal.latency, "holistic beats optimal to first word");

    // Quality ordering: holistic close to optimal, starved unmerged below.
    let q_opt = outcome_quality(&optimal, &table, &query);
    let q_hol = outcome_quality(&holistic, &table, &query);
    let q_unm = outcome_quality(&unmerged, &table, &query);
    assert!(q_opt > 0.1, "optimal quality {q_opt}");
    assert!(q_hol > q_opt * 0.6, "holistic {q_hol} close to optimal {q_opt}");
    assert!(q_unm <= q_hol + 0.05, "starved unmerged {q_unm} not above holistic {q_hol}");
}

#[test]
fn table_9_shape_prior_is_much_longer() {
    let table = FlightsConfig { rows: 15_000, seed: 42 }.generate();
    let schema = table.schema();
    // A 2-dimension query at fine granularity: the prior baseline must
    // enumerate every merged value group.
    let query = Query::builder(AggFct::Avg)
        .group_by(DimId(0), LevelId(2))
        .group_by(DimId(1), LevelId(1))
        .build(schema)
        .unwrap();
    let mut voice = InstantVoice::default();
    let prior = PriorGreedy.vocalize(&table, &query, &mut voice);
    let holistic = Holistic::new(HolisticConfig {
        min_samples_per_sentence: 300,
        max_tree_nodes: 50_000,
        ..HolisticConfig::default()
    })
    .vocalize(&table, &query, &mut voice);
    assert!(
        prior.body_len() > 3 * holistic.body_len(),
        "prior {} chars vs holistic {} chars",
        prior.body_len(),
        holistic.body_len()
    );
    assert!(holistic.body_len() <= 300, "this approach respects the budget");
}

#[test]
fn lemma_a2_single_aggregate_belief_is_independent_of_result_size() {
    // Computing the belief for ONE aggregate must not require the full
    // result: verify it agrees with the full instantiation but is usable
    // standalone (structural check of the O(k) path).
    let table = FlightsConfig { rows: 5_000, seed: 42 }.generate();
    let query = Query::builder(AggFct::Avg)
        .group_by(DimId(0), LevelId(2))
        .group_by(DimId(1), LevelId(2))
        .build(table.schema())
        .unwrap();
    let schema = table.schema();
    let winter = schema.dimension(DimId(1)).member_by_phrase("Winter").unwrap();
    let speech = Speech {
        baseline: Baseline::point(0.02),
        refinements: vec![Refinement {
            predicates: vec![Predicate { dim: DimId(1), member: winter }],
            change: Change { direction: Direction::Increase, percent: 100 },
        }],
    };
    let cs = CompiledSpeech::compile(&speech, query.layout(), schema);
    let all = cs.means_all(query.layout());
    for agg in (0..query.n_aggregates() as u32).step_by(17) {
        assert_eq!(cs.mean_for(agg, query.layout()), all[agg as usize]);
    }
}

#[test]
fn quality_metric_correlates_with_estimation_error() {
    // The paper argues its quality metric "correlates with the performance
    // of users in estimating query result values": a higher-quality speech
    // must yield lower listener estimation error.
    use voxolap_simuser::estimation::EstimationStudy;
    let table = FlightsConfig { rows: 40_000, seed: 42 }.generate();
    let query = region_season_query(&table);
    let schema = table.schema();
    let exact = evaluate(&query, &table);
    let model = BeliefModel::from_overall_mean(exact.grand_mean());

    let ne = schema.dimension(DimId(0)).member_by_phrase("the North East").unwrap();
    let good = Speech {
        baseline: Baseline::point(0.015),
        refinements: vec![Refinement {
            predicates: vec![Predicate { dim: DimId(0), member: ne }],
            change: Change { direction: Direction::Increase, percent: 100 },
        }],
    };
    let bad = Speech::baseline_only(0.10);

    let q_good = speech_quality(
        &CompiledSpeech::compile(&good, query.layout(), schema),
        &model,
        &exact,
        query.layout(),
    );
    let q_bad = speech_quality(
        &CompiledSpeech::compile(&bad, query.layout(), schema),
        &model,
        &exact,
        query.layout(),
    );
    assert!(q_good > q_bad);

    let study = EstimationStudy { n_users: 6, noise_rel: 0.02, seed: 42 };
    let result = study.run(&table, &query, &[("good".to_string(), good), ("bad".to_string(), bad)]);
    assert!(
        result.median_abs_err[0] < result.median_abs_err[1],
        "higher quality -> lower median error: {:?}",
        result.median_abs_err
    );
}
