//! Property-style tests over the core invariants, driven by seeded
//! random case generation (64 cases per property, mirroring the old
//! proptest configuration):
//!
//! * Theorem A.1 for arbitrary refinement sequences;
//! * number verbalization round-off bounds;
//! * result-layout index bijectivity;
//! * grammar shape of rendered speeches;
//! * cache estimator consistency for arbitrary sampling prefixes;
//! * uniformity of the two-level chunked scan order (prefix-sample means
//!   converge at the estimator's error rate across 50 seeds);
//! * the reward's posterior draw stays within its own error bound of the
//!   exact aggregate across 50 seeds.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use voxolap_data::dimension::LevelId;
use voxolap_data::salary::SalaryConfig;
use voxolap_data::DimId;
use voxolap_engine::exact::evaluate;
use voxolap_engine::query::{AggFct, Query};
use voxolap_engine::sharded::{IngestBatch, ShardedSampleCache};
use voxolap_speech::ast::{Baseline, Change, Direction, Predicate, Refinement, Speech};
use voxolap_speech::parse::parse_body;
use voxolap_speech::render::Renderer;
use voxolap_speech::scope::CompiledSpeech;
use voxolap_speech::verbalize::{baseline_grid, round_significant};

const CASES: usize = 64;

fn salary_query() -> (voxolap_data::Table, Query) {
    let table = SalaryConfig { rows: 64, seed: 5 }.generate();
    let q = Query::builder(AggFct::Avg)
        .group_by(DimId(0), LevelId(1))
        .group_by(DimId(1), LevelId(1))
        .build(table.schema())
        .unwrap();
    (table, q)
}

/// An arbitrary refinement over the salary query's predicate space
/// (regions, states, rough bins — all levels at or above grouping).
fn arb_refinement(gen: &mut StdRng) -> Refinement {
    // Dim 0 members 1..=4 are regions; dim 1 members 1..=2 the rough bins.
    let predicate = if gen.gen_bool(0.5) {
        Predicate { dim: DimId(0), member: voxolap_data::MemberId(gen.gen_range(1u32..=4)) }
    } else {
        Predicate { dim: DimId(1), member: voxolap_data::MemberId(gen.gen_range(1u32..=2)) }
    };
    loop {
        let direction = if gen.gen_bool(0.5) { Direction::Increase } else { Direction::Decrease };
        let percent = *[5u32, 20, 50, 100, 200].choose(gen).unwrap();
        if direction == Direction::Increase || percent < 100 {
            return Refinement {
                predicates: vec![predicate],
                change: Change { direction, percent },
            };
        }
    }
}

fn arb_refinements(gen: &mut StdRng, max: usize) -> Vec<Refinement> {
    let n = gen.gen_range(0..max);
    (0..n).map(|_| arb_refinement(gen)).collect()
}

#[test]
fn theorem_a1_holds_for_arbitrary_speeches() {
    let (table, q) = salary_query();
    let mut gen = StdRng::seed_from_u64(0xca5e_0001);
    for _ in 0..CASES {
        let baseline = gen.gen_range(1.0f64..500.0);
        let refinements = arb_refinements(&mut gen, 6);
        let speech = Speech { baseline: Baseline::point(baseline), refinements };
        let cs = CompiledSpeech::compile(&speech, q.layout(), table.schema());
        let means = cs.means_all(q.layout());
        let avg = means.iter().sum::<f64>() / means.len() as f64;
        assert!(
            (avg - baseline).abs() < 1e-6 * baseline.max(1.0),
            "average {avg} vs baseline {baseline}"
        );
    }
}

#[test]
fn rendered_speeches_follow_the_grammar() {
    let (table, q) = salary_query();
    let renderer = Renderer::new(table.schema(), &q);
    let mut gen = StdRng::seed_from_u64(0xca5e_0002);
    for _ in 0..CASES {
        let baseline = gen.gen_range(1.0f64..500.0);
        let refinements = arb_refinements(&mut gen, 4);
        let speech = Speech { baseline: Baseline::point(baseline), refinements };
        let body = renderer.body_text(&speech);
        // <B> then <R>*: exactly 1 + k sentences, every refinement starts
        // with "Values" and the body parses back into the same sentences.
        let sentences: Vec<&str> = body.split(". ").collect();
        assert_eq!(sentences.len(), 1 + speech.refinements.len());
        assert!(sentences[0].contains("is the average"));
        for s in &sentences[1..] {
            assert!(s.starts_with("Values "), "refinement sentence: {s}");
            assert!(s.contains(" by ") && s.contains(" percent for "));
        }
        assert!(body.ends_with('.'));
    }
}

#[test]
fn render_parse_round_trip() {
    // Baselines on the value grid round-trip exactly (arbitrary floats
    // would be re-rounded by verbalization, by design).
    let (table, q) = salary_query();
    let renderer = Renderer::new(table.schema(), &q);
    let grid = [60.0, 70.0, 80.0, 90.0, 100.0, 150.0, 200.0, 85.0];
    let mut gen = StdRng::seed_from_u64(0xca5e_0003);
    for _ in 0..CASES {
        let grid_idx = gen.gen_range(0usize..grid.len());
        let refinements = arb_refinements(&mut gen, 4);
        let speech = Speech { baseline: Baseline::point(grid[grid_idx]), refinements };
        let body = renderer.body_text(&speech);
        let parsed = parse_body(&body, table.schema(), &q).unwrap();
        assert_eq!(parsed, speech, "body: {body}");
    }
}

#[test]
fn round_significant_error_is_bounded() {
    let mut gen = StdRng::seed_from_u64(0xca5e_0004);
    for _ in 0..CASES {
        // Log-uniform over 1e-6 .. 1e12.
        let v = 10f64.powf(gen.gen_range(-6.0f64..12.0));
        let r = round_significant(v, 1);
        // One significant digit: relative error strictly below 50 %
        // (worst case 0.149… -> 0.1).
        assert!((r - v).abs() / v < 0.5, "v={v} r={r}");
        // Idempotent.
        assert_eq!(round_significant(r, 1), r);
    }
}

#[test]
fn baseline_grid_brackets_the_estimate() {
    let mut gen = StdRng::seed_from_u64(0xca5e_0005);
    for _ in 0..CASES {
        let v = 10f64.powf(gen.gen_range(-6.0f64..9.0));
        let grid = baseline_grid(v);
        assert!(!grid.is_empty());
        assert!(grid.iter().any(|&g| g <= v * 1.12), "grid below estimate");
        assert!(grid.iter().any(|&g| g >= v * 0.9), "grid above estimate");
        for w in grid.windows(2) {
            assert!(w[0] < w[1], "sorted and deduped");
        }
    }
}

#[test]
fn layout_index_roundtrip() {
    let (_table, q) = salary_query();
    let layout = q.layout();
    for agg_step in 1usize..7 {
        for agg in (0..layout.n_aggregates() as u32).step_by(agg_step) {
            let coords = layout.coords_of_agg(agg);
            let scope = layout.scope_of_agg(agg);
            assert_eq!(coords.len(), scope.len());
            let rebuilt: u32 =
                coords.iter().enumerate().map(|(d, &c)| c * layout.stride(DimId(d as u8))).sum();
            assert_eq!(rebuilt, agg);
        }
    }
}

#[test]
fn cache_counts_are_exact_on_any_prefix() {
    let (table, q) = salary_query();
    let mut gen = StdRng::seed_from_u64(0xca5e_0006);
    for _ in 0..CASES {
        let prefix_len = gen.gen_range(1usize..64);
        let seed = gen.gen_range(0u64..32);
        let cache = ShardedSampleCache::new(q.n_aggregates(), table.row_count() as u64);
        let mut batch = IngestBatch::new(q.n_aggregates());
        let mut scan = table.scan_shuffled(seed);
        let mut observed = 0;
        for _ in 0..prefix_len {
            let Some(r) = scan.next_row() else { break };
            batch.push(q.layout().agg_of_row(r.members), r.value);
            observed += 1;
        }
        cache.observe_batch(&mut batch);
        assert_eq!(cache.nr_read(), observed as u64);
        // Sizes sum to in-scope rows (all of them for this query).
        let total: usize = (0..q.n_aggregates() as u32).map(|a| cache.size(a)).sum();
        assert_eq!(total, observed);
        // Count estimate over the whole scope is exactly the table size.
        let est = cache.overall_estimate(AggFct::Count).unwrap();
        assert!((est - table.row_count() as f64).abs() < 1e-9);
    }
}

/// Algorithm 3's estimator treats every scan prefix as a uniform random
/// sample, so its confidence bounds shrink at the σ/√k rate. The chunked
/// two-level order (seeded chunk permutation + on-the-fly in-chunk
/// bijection, DESIGN.md §13) must deliver prefixes whose means actually
/// converge at that rate: 50 seeds, each checked against a 4σ bound with
/// finite-population correction, plus an unbiasedness check on the
/// cross-seed average.
#[test]
fn prefix_sample_means_respect_the_estimator_error_bound() {
    let table = SalaryConfig { rows: 20_000, seed: 9 }.generate();
    let n = table.row_count();
    let values: Vec<f64> = (0..n).map(|r| table.value_at(r)).collect();
    let truth = values.iter().sum::<f64>() / n as f64;
    let var = values.iter().map(|v| (v - truth).powi(2)).sum::<f64>() / n as f64;

    let k = 2_000usize;
    // Prefixes draw without replacement from a fixed population: the
    // standard error carries the finite-population correction.
    let fpc = (((n - k) as f64) / ((n - 1) as f64)).sqrt();
    let se = (var / k as f64).sqrt() * fpc;

    let mut means = Vec::with_capacity(50);
    for seed in 0..50u64 {
        // 256-row chunks put ~78 chunks in play, so the prefix crosses
        // many chunk boundaries and exercises both permutation levels.
        let order = voxolap_data::ScanOrder::with_chunk_size(n, seed, 256);
        let mut sum = 0.0;
        let mut taken = 0usize;
        'prefix: for pos in 0..order.n_chunks() {
            for rank in 0..order.chunk_len(pos) {
                if taken == k {
                    break 'prefix;
                }
                sum += values[order.row_at(pos, rank)];
                taken += 1;
            }
        }
        assert_eq!(taken, k);
        let mean = sum / k as f64;
        assert!(
            (mean - truth).abs() <= 4.0 * se,
            "seed {seed}: prefix mean {mean} vs true mean {truth} (4 sigma = {:.4})",
            4.0 * se
        );
        means.push(mean);
    }
    // Unbiasedness: the cross-seed average must tighten roughly √50-fold.
    let avg = means.iter().sum::<f64>() / means.len() as f64;
    assert!(
        (avg - truth).abs() <= 4.0 * se / (means.len() as f64).sqrt(),
        "biased scan order: cross-seed mean {avg} vs true mean {truth}"
    );
}

/// The sampling planners reward a leaf against one draw from the normal
/// posterior of an aggregate's mean, N(x̄, se²) with se = s/√n·√(1 − n/N).
/// Its error against the exact mean adds two independent terms — x̄'s own
/// sampling error and the draw's spread — of about se each, so the draw
/// is within 4·√2·se of the truth, where se is computed from the
/// aggregate's exact variance: 50 seeds × 4 aggregates of a 2 000-row
/// prefix of 20 000 salary rows, plus unbiasedness of the cross-seed mean.
#[test]
fn posterior_draws_respect_the_estimator_error_bound() {
    use voxolap_core::sampler::draw_estimate;
    let table = SalaryConfig { rows: 20_000, seed: 9 }.generate();
    let q =
        Query::builder(AggFct::Avg).group_by(DimId(0), LevelId(1)).build(table.schema()).unwrap();
    let exact = evaluate(&q, &table);
    let n_aggs = q.n_aggregates();
    // Exact per-aggregate population variance, by brute force.
    let mut groups = vec![Vec::new(); n_aggs];
    let mut scan = table.scan_shuffled(0);
    while let Some(r) = scan.next_row() {
        groups[q.layout().agg_of_row(r.members).unwrap() as usize].push(r.value);
    }
    let pop_var = |a: usize| {
        let g = &groups[a];
        let mean = exact.value(a as u32);
        g.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (g.len() - 1) as f64
    };

    let k = 2_000;
    let mut errors = vec![(0.0, 0.0); n_aggs];
    for seed in 0..50u64 {
        let cache = ShardedSampleCache::new(n_aggs, table.row_count() as u64);
        let mut batch = IngestBatch::new(n_aggs);
        let mut scan = table.scan_shuffled(seed);
        for _ in 0..k {
            let r = scan.next_row().unwrap();
            batch.push(q.layout().agg_of_row(r.members), r.value);
        }
        cache.observe_batch(&mut batch);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xd4a7);
        for (a, err) in errors.iter_mut().enumerate() {
            let post = cache.posterior(a as u32).unwrap();
            let (n, big_n) = (post.n as f64, groups[a].len() as f64);
            let se = (pop_var(a) / n * (1.0 - n / big_n)).sqrt();
            let draw = draw_estimate(&post, AggFct::Avg, &mut rng);
            let truth = exact.value(a as u32);
            assert!(
                (draw - truth).abs() <= 4.0 * 2f64.sqrt() * se,
                "seed {seed} agg {a}: draw {draw} vs exact {truth} (4·√2·se = {:.3})",
                4.0 * 2f64.sqrt() * se
            );
            *err = (err.0 + (draw - truth), err.1 + se);
        }
    }
    for (a, (sum_err, sum_se)) in errors.into_iter().enumerate() {
        let (bias, se) = (sum_err / 50.0, sum_se / 50.0);
        assert!(bias.abs() <= 4.0 * 2f64.sqrt() * se / 50f64.sqrt(), "agg {a}: bias {bias}");
    }
}

/// Segmented scan orders (DESIGN.md §16) must stay permutations after
/// appends: every row of the grown table visited exactly once, and the
/// old-prefix sub-order byte-identical to the order of the table before
/// the append (so cached sample snapshots remain resumable).
#[test]
fn segmented_scan_order_visits_grown_tables_exactly_once() {
    let mut gen = StdRng::seed_from_u64(0xca5e_0007);
    for _ in 0..CASES {
        let n0 = gen.gen_range(1usize..400);
        let n1 = gen.gen_range(1usize..200);
        let n2 = gen.gen_range(0usize..100);
        let chunk = gen.gen_range(1usize..64);
        let seed = gen.gen_range(0u64..1 << 20);
        let segments: Vec<usize> = [n0, n1, n2].into_iter().filter(|&s| s > 0).collect();
        let total: usize = segments.iter().sum();
        let order = voxolap_data::ScanOrder::segmented(&segments, seed, chunk);

        let mut visited = vec![0u32; total];
        let mut sequence = Vec::with_capacity(total);
        for pos in 0..order.n_chunks() {
            for rank in 0..order.chunk_len(pos) {
                let row = order.row_at(pos, rank);
                visited[row] += 1;
                sequence.push(row);
            }
        }
        assert!(visited.iter().all(|&v| v == 1), "not a permutation of 0..{total}");

        // Old-prefix stability: the pre-append order is a literal prefix.
        let old = voxolap_data::ScanOrder::segmented(&segments[..1], seed, chunk);
        let mut old_sequence = Vec::with_capacity(n0);
        for pos in 0..old.n_chunks() {
            for rank in 0..old.chunk_len(pos) {
                old_sequence.push(old.row_at(pos, rank));
            }
        }
        assert_eq!(&sequence[..n0], &old_sequence[..], "old prefix reordered by append");
        // And the boundary is recognized where repairs resume.
        assert_eq!(order.prefix_positions(n0), old.n_chunks());
    }
}

/// Repairing a version-stale snapshot (adding a prefix of the appended
/// suffix at the donor's inclusion rate) must leave a sample as good as a
/// fresh scan of the grown table: across 50 seeds, the mean of the rows the
/// repaired snapshot names stays within the estimator's 4σ bound of the
/// grown table's true mean, and the cross-seed average is unbiased.
#[test]
fn repaired_snapshot_estimates_match_the_fresh_sample_bound() {
    use voxolap_engine::repair::repair_snapshot;
    use voxolap_engine::semantic::SampleSnapshot;

    let old = SalaryConfig { rows: 20_000, seed: 9 }.generate();
    // Append a 4,000-row suffix echoing early rows (no new members).
    let (new, _) = old.append_rows(&echo_rows(&old, 4_000)).unwrap();
    let n = new.row_count();
    let values: Vec<f64> = (0..n).map(|r| new.value_at(r)).collect();
    let truth = values.iter().sum::<f64>() / n as f64;
    let var = values.iter().map(|v| (v - truth).powi(2)).sum::<f64>() / n as f64;

    // Unfiltered scope: every row the snapshot names is in scope.
    let scope = Query::builder(AggFct::Avg)
        .group_by(DimId(0), LevelId(1))
        .build(old.schema())
        .unwrap()
        .key()
        .scope();

    let k0 = 2_000u64;
    let k = k0 + 400; // k1 = round(4000 * 2000/20000)
    let fpc = (((n as u64 - k) as f64) / ((n - 1) as f64)).sqrt();
    let se = (var / k as f64).sqrt() * fpc;

    let mut means = Vec::with_capacity(50);
    for seed in 0..50u64 {
        let mut scan = old.scan_shuffled_measure(seed, scope.measure());
        for _ in 0..k0 {
            scan.next_row().expect("old table has k0 rows");
        }
        let donor = SampleSnapshot {
            seed,
            progress: scan.progress(),
            nr_read: k0,
            version: old.version(),
            table_rows: old.row_count() as u64,
        };
        let out = repair_snapshot(&donor, &new, &scope).expect("repairable");
        assert_eq!(out.snapshot.nr_read, k, "proportional suffix read");
        assert!(out.rows_read <= 4_000, "repair read past the suffix");
        let mut named = new.scan_consumed(seed, scope.measure(), &out.snapshot.progress);
        let mut sum = 0.0;
        while let Some(r) = named.next_row() {
            sum += r.value;
        }
        assert_eq!(named.rows_read() as u64, k, "the snapshot names nr_read rows");
        let mean = sum / k as f64;
        assert!(
            (mean - truth).abs() <= 4.0 * se,
            "seed {seed}: repaired mean {mean} vs true mean {truth} (4 sigma = {:.4})",
            4.0 * se
        );
        means.push(mean);
    }
    let avg = means.iter().sum::<f64>() / means.len() as f64;
    assert!(
        (avg - truth).abs() <= 4.0 * se / (means.len() as f64).sqrt(),
        "biased repair: cross-seed mean {avg} vs true mean {truth}"
    );
}

/// Rows that echo `table`'s first `n` rows (no new members): an append
/// the dictionaries already cover.
fn echo_rows(table: &voxolap_data::Table, n: usize) -> Vec<voxolap_data::IngestRow> {
    (0..n)
        .map(|i| voxolap_data::IngestRow {
            dims: (0..table.schema().dimensions().len())
                .map(|d| {
                    let id = DimId(d as u8);
                    let m = table.member_at(id, i);
                    voxolap_data::DimValue::Phrase(
                        table.schema().dimension(id).member(m).phrase.clone(),
                    )
                })
                .collect(),
            values: vec![table.value_at(i)],
        })
        .collect()
}

/// `evaluate` against the row loop it replaced (`agg_of_row` per row, in
/// row order): equal counts and bit-equal sums — on small tables, on one
/// that spans two chunks, and on each of them grown by an append — for a
/// grouped query and a filtered one.
#[test]
fn exact_evaluation_matches_brute_force() {
    let mut tables: Vec<voxolap_data::Table> =
        (0u64..16).map(|seed| SalaryConfig { rows: 48, seed }.generate()).collect();
    tables.push(SalaryConfig { rows: voxolap_data::CHUNK_ROWS + 100, seed: 3 }.generate());
    let grown: Vec<_> =
        tables.iter().map(|t| t.append_rows(&echo_rows(t, 20)).unwrap().0).collect();
    for table in tables.iter().chain(&grown) {
        let grouped = Query::builder(AggFct::Avg).group_by(DimId(1), LevelId(1));
        let filtered = Query::builder(AggFct::Avg)
            .filter(DimId(0), table.member_at(DimId(0), 0))
            .group_by(DimId(1), LevelId(1));
        for q in [grouped, filtered] {
            let q = q.build(table.schema()).unwrap();
            let result = evaluate(&q, table);
            let layout = q.layout();
            let mut counts = vec![0u64; layout.n_aggregates()];
            let mut sums = vec![0.0f64; layout.n_aggregates()];
            for row in 0..table.row_count() {
                if let Some(agg) = layout.agg_of_row(&table.row_members(row)) {
                    counts[agg as usize] += 1;
                    sums[agg as usize] += table.value_at(row);
                }
            }
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(result.counts(), counts, "{} rows", table.row_count());
            assert_eq!(bits(result.sums()), bits(&sums), "{} rows", table.row_count());
        }
    }
}
