//! Tests pinning the paper's quantitative claims, at test-friendly scale:
//!
//! * Theorem A.1 — belief models stay consistent with the baseline claim;
//! * Example 3.4 — the worked belief-mean numbers;
//! * Figure 3's shape — latency ordering and quality ordering;
//! * Table 9's shape — the prior baseline's output is much longer and the
//!   gap grows with dimensionality;
//! * Lemma A.2 / Theorem A.3 — structural cost bounds of sampling;
//! * every "Shape check ✓" of `EXPERIMENTS.md`, on the structured results
//!   `all_experiments` renders (`voxolap_bench::experiments`), at test
//!   scale and deterministic under the seed.

use std::sync::OnceLock;

use voxolap_belief::model::BeliefModel;
use voxolap_belief::quality::speech_quality;
use voxolap_bench::experiments::{datasets, studies, sweep_rows, Comparison, Lineup};
use voxolap_bench::{
    flights_table, region_season_query, salary_table, state_month_query, PAPER_FLIGHTS_ROWS,
};
use voxolap_core::approach::Vocalizer;
use voxolap_core::holistic::{Holistic, HolisticConfig};
use voxolap_core::prior::PriorGreedy;
use voxolap_core::unmerged::SamplingBudget;
use voxolap_core::voice::{InstantVoice, VirtualVoice};
use voxolap_data::dimension::LevelId;
use voxolap_data::flights::FlightsConfig;
use voxolap_data::salary::SalaryConfig;
use voxolap_data::stats::DatasetStats;
use voxolap_data::{DimId, Table};
use voxolap_engine::exact::evaluate;
use voxolap_engine::query::{AggFct, Query};
use voxolap_speech::ast::{Baseline, Change, Direction, Predicate, Refinement, Speech};
use voxolap_speech::scope::CompiledSpeech;

/// The runner's seed.
const SEED: u64 = 42;

/// Flights rows for Figure 3 and Tables 7 and 13 at test scale.
const TEST_ROWS: usize = 20_000;

/// Flights rows for Tables 5, 6 and 14, half the record's: their
/// Holistic-vs-Unmerged orderings are within sampling noise of each other.
/// Sampling, not the scan, dominates a debug run, so this costs no more
/// than 20 000 rows.
const REGION_SEASON_ROWS: usize = 100_000;

/// The runner's lineup at test scale, deterministic under the seed: the
/// same planner configuration, Holistic at one thread paced by a virtual
/// voice granting 100 iterations per character instead of 600, and
/// Unmerged on 2 000 iterations instead of 500 ms of wall clock.
fn test_lineup() -> Lineup {
    Lineup {
        voice: VirtualVoice::new(100.0),
        unmerged: SamplingBudget::Iterations(2_000),
        ..Lineup::paper(SEED)
    }
}

/// The flights table at test scale and the lineup's region × season
/// comparison on it: Table 5, and the speeches Tables 6 and 14 hear.
fn region_season() -> &'static (Table, Comparison) {
    static RUN: OnceLock<(Table, Comparison)> = OnceLock::new();
    RUN.get_or_init(|| {
        let table = flights_table(REGION_SEASON_ROWS);
        let comparison = test_lineup().compare(&table, &region_season_query(&table));
        (table, comparison)
    })
}

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

    // A starved unmerged run (few iterations ~ tight time budget at the
    // paper's data scale).
    let c = Lineup {
        config: HolisticConfig { seed: 42, ..HolisticConfig::default() },
        voice: VirtualVoice::new(100.0),
        unmerged: SamplingBudget::Iterations(150),
    }
    .compare(&table, &query);

    // Latency ordering: holistic starts speaking immediately; optimal pays
    // for the full evaluation + exhaustive scoring.
    let (optimal, holistic) = (&c.optimal.outcome, &c.holistic.outcome);
    assert!(holistic.latency < optimal.latency, "holistic beats optimal to first word");

    // Quality ordering: holistic close to optimal, starved unmerged below.
    let (q_opt, q_hol, q_unm) = (c.optimal.quality, c.holistic.quality, c.unmerged.quality);
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

// ---- EXPERIMENTS.md shape checks ---------------------------------------

#[test]
fn figure_3_holistic_speaks_first_and_optimal_scores_best() {
    let table = flights_table(TEST_ROWS);
    for (label, c) in test_lineup().figure_3(&table) {
        // Holistic's preamble needs no data; Optimal's waits for a full
        // evaluation and an exhaustive plan.
        assert!(
            c.holistic.outcome.latency < c.optimal.outcome.latency,
            "{label}: holistic {:?} vs optimal {:?}",
            c.holistic.outcome.latency,
            c.optimal.outcome.latency
        );
        // Optimal scores the whole speech space on exact aggregates.
        for (name, run) in c.runs() {
            assert!(
                run.quality <= c.optimal.quality,
                "{label}: {name} {} above optimal {}",
                run.quality,
                c.optimal.quality
            );
        }
    }
}

#[test]
fn table_5_quality_orders_optimal_holistic_unmerged() {
    let (_, c) = region_season();
    let q = [c.optimal.quality, c.holistic.quality, c.unmerged.quality];
    assert!(q[0] >= q[1] && q[1] >= q[2], "optimal, holistic, unmerged: {q:?}");
}

#[test]
fn tables_6_and_14_listeners_of_the_table_5_speeches() {
    let (table, c) = region_season();
    let est = studies::estimation(table, c, SEED);
    assert_eq!(est.approaches, ["Optimal", "Holistic", "Unmerged"]);
    let median = &est.median_abs_err;
    // Table 6: the good speeches leave the model-following listeners
    // under one percentage point; Unmerged's leaves them the furthest off.
    assert!(median[0] < 1.0 && median[1] < 1.0, "medians {median:?}");
    assert!(median[2] > median[0] && median[2] > median[1], "medians {median:?}");
    // Users 1 and 8 misread "increase by" as "increase to": the two
    // largest errors under every approach.
    for a in 0..3 {
        let mut by_err: Vec<_> = est.per_user.iter().map(|u| (u.abs_err[a], u.user)).collect();
        by_err.sort_by(|x, y| y.0.total_cmp(&x.0));
        let mut worst = [by_err[0].1, by_err[1].1];
        worst.sort();
        assert_eq!(worst, [1, 8], "{}: {by_err:?}", est.approaches[a]);
    }
    // Table 14 asserts nothing: Unmerged no longer gets the fewest
    // tendencies right (EXPERIMENTS.md, ✗).
}

#[test]
fn tables_2_and_10_pilot_majorities() {
    let pilot = studies::pilot(SEED);
    let share = |(_, c, i): &(String, usize, usize)| *c as f64 / (c + i) as f64;
    for aspect in &pilot.per_aspect {
        assert!(share(aspect) > 0.5, "a majority supports {aspect:?}");
    }
    let weakest = pilot.per_aspect.iter().min_by(|a, b| share(a).total_cmp(&share(b))).unwrap();
    let strongest = pilot.per_aspect.iter().max_by(|a, b| share(a).total_cmp(&share(b))).unwrap();
    assert_eq!((weakest.0.as_str(), strongest.0.as_str()), ("Composition", "Variance"));
    // Composition splits exactly as the paper's 21/19.
    assert_eq!((weakest.1, weakest.2), (21, 19));
}

#[test]
fn table_7_facts_cover_every_dimension() {
    let table = flights_table(TEST_ROWS);
    let facts = studies::facts(&table, SEED);
    for dim in ["start airport", "flight date", "airline"] {
        assert!(
            facts.iter().any(|f| f.dimensions.iter().any(|d| d == dim)),
            "a fact about the {dim}: {facts:?}"
        );
    }
}

#[test]
fn tables_8_and_9_preferences_and_lengths() {
    // The runner's own parameters: `all_experiments` caps this study's
    // flights table at 30 000 rows.
    let prefs = studies::preferences(30_000, SEED);
    for d in &prefs.datasets {
        let [prior_pp, prior_p, _, this_p, this_pp] = d.counts;
        let sessions: usize = d.counts.iter().sum();
        assert!(2 * (this_p + this_pp) > sessions, "{}: {:?}", d.dataset, d.counts);
        assert!(this_p + this_pp > prior_pp + prior_p, "{}: {:?}", d.dataset, d.counts);
        // Table 9: this approach keeps to its 300-character budget.
        assert!(d.this_len.max <= 300, "{}: {}", d.dataset, d.this_len.max);
    }
    let ratio = |i: usize| {
        let d = &prefs.datasets[i];
        (d.prior_len.avg / d.this_len.avg, d.prior_len.max as f64 / d.this_len.max as f64)
    };
    let (salary, flights) = (ratio(0), ratio(1));
    assert!(flights.0 > salary.0, "average gap grows with dimensionality");
    assert!(flights.1 > salary.1, "maximum gap grows with dimensionality");
    assert!(flights.1 >= 50.0, "flights maximum gap of ~two orders: {}", flights.1);
}

#[test]
fn table_11_dataset_statistics_match_the_paper() {
    let stats = [&salary_table(), &flights_table(1_000)].map(DatasetStats::of);
    assert_eq!(stats[0].rows, 320);
    assert_eq!(stats[0].dimensions, ["college location", "start salary"]);
    assert_eq!(stats[1].dimensions, ["start airport", "flight date", "airline"]);
    assert_eq!(PAPER_FLIGHTS_ROWS, 5_300_000, "the runner's Table 11 scale");
}

#[test]
fn table_12_extreme_cells_in_the_paper_order() {
    let rows = datasets::region_season_result(&flights_table(200_000));
    let cell = |i: usize| (rows[i].0.as_str(), rows[i].1.as_str());
    let top = [
        ("the North East", "Winter"),
        ("the Midwest", "Winter"),
        ("the South", "Winter"),
        ("the North East", "Spring"),
    ];
    assert_eq!([cell(0), cell(1), cell(2), cell(3)], top);
    assert_eq!(cell(rows.len() - 1), ("the United States territories", "Fall"));
}

#[test]
fn table_13_optimal_scores_best_on_288_fields() {
    let table = flights_table(TEST_ROWS);
    let query = state_month_query(&table);
    assert_eq!(query.n_aggregates(), 288);
    let c = test_lineup().compare(&table, &query);
    for (name, run) in c.runs() {
        assert!(run.quality <= c.optimal.quality, "{name} {} above optimal", run.quality);
    }
}

#[test]
fn scale_sweep_holistic_speaks_first_at_every_scale() {
    let sweep = test_lineup().scale_sweep(&sweep_rows(TEST_ROWS));
    for (rows, c) in sweep {
        assert!(
            c.holistic.outcome.latency < c.optimal.outcome.latency,
            "{rows} rows: holistic {:?} vs optimal {:?}",
            c.holistic.outcome.latency,
            c.optimal.outcome.latency
        );
    }
}
